/**
 * @file
 * Portable SIMD vector wrapper for the micro-kernel TUs.
 *
 * VF (packed float) and VD (packed double) map to the widest vector
 * unit the *current translation unit* is compiled for, selected from
 * the compiler's predefined macros:
 *
 *   __AVX512F__                    -> 16 floats / 8 doubles
 *   __AVX2__ + __FMA__ + __F16C__  ->  8 floats / 4 doubles
 *
 * AVX2 is the floor: every vector level has FMA, gather and a
 * hardware binary16 decode. Anything narrower is a compile error;
 * such hosts run the scalar micro-kernel table
 * (winograd/microkernel_scalar.cc), which does not include this
 * header.
 *
 * IMPORTANT: this header is meant to be included ONLY from the
 * ISA-specific micro-kernel TUs (winograd/microkernel_*.cc), each of
 * which is compiled with its own -m flags. Everything lives in an
 * anonymous namespace so two TUs compiled at different ISA levels can
 * coexist in one binary without ODR violations; the only symbols a TU
 * exports are its uniquely named kernel-table factory.
 *
 * Masked tails: loadPartial/storePartial handle the trailing n < W
 * lanes of a loop (AVX-512 uses native mask registers; AVX2 falls
 * back to a lane loop). Partial loads zero-fill the lanes
 * beyond n so arithmetic on the tail never touches garbage.
 *
 * Lane masks: VD::maskOf(bits) selects any lane subset;
 * loadFromFloatMasked reads only the selected floats (0 elsewhere) and
 * fmaMasked leaves the unselected accumulator lanes untouched (a
 * masked fma at AVX-512, a blend at AVX2), so an inf or NaN operand in
 * an unselected lane cannot leak into them.
 */

#ifndef WINOMC_COMMON_SIMD_HH
#define WINOMC_COMMON_SIMD_HH

#include <cstdint>

#if defined(__AVX512F__)
#define WINOMC_SIMD_LEVEL 3
#elif defined(__AVX2__) && defined(__FMA__) && defined(__F16C__)
#define WINOMC_SIMD_LEVEL 2
#else
#error "common/simd.hh needs AVX2 + FMA + F16C or wider (-mavx2 -mfma -mf16c)"
#endif

#include <immintrin.h>

namespace {
namespace simd {

#if WINOMC_SIMD_LEVEL == 3

struct VF
{
    __m512 v;
    static constexpr int W = 16;

    static VF zero() { return {_mm512_setzero_ps()}; }
    static VF broadcast(float x) { return {_mm512_set1_ps(x)}; }
    static VF load(const float *p) { return {_mm512_loadu_ps(p)}; }
    static VF
    loadPartial(const float *p, int n)
    {
        const __mmask16 m = __mmask16((1u << n) - 1u);
        return {_mm512_maskz_loadu_ps(m, p)};
    }
    void store(float *p) const { _mm512_storeu_ps(p, v); }
    void
    storePartial(float *p, int n) const
    {
        _mm512_mask_storeu_ps(p, __mmask16((1u << n) - 1u), v);
    }
    static VF
    fma(VF a, VF b, VF acc)
    {
        return {_mm512_fmadd_ps(a.v, b.v, acc.v)};
    }
    static VF add(VF a, VF b) { return {_mm512_add_ps(a.v, b.v)}; }
    static VF mul(VF a, VF b) { return {_mm512_mul_ps(a.v, b.v)}; }
    /** max(x, 0) with the scalar `x > 0 ? x : 0` semantics. */
    static VF
    reluOf(VF x)
    {
        return {_mm512_max_ps(x.v, _mm512_setzero_ps())};
    }
    /** 1.0f where x > 0, else 0.0f. */
    static VF
    gtZeroOne(VF x)
    {
        const __mmask16 m =
            _mm512_cmp_ps_mask(x.v, _mm512_setzero_ps(), _CMP_GT_OQ);
        return {_mm512_maskz_mov_ps(m, _mm512_set1_ps(1.0f))};
    }
    /** Bit l set iff lane l != 0.0f (NaN counts, ±0 does not). */
    static unsigned
    nonzeroBits(VF x)
    {
        return _mm512_cmp_ps_mask(x.v, _mm512_setzero_ps(), _CMP_NEQ_UQ);
    }
    /** Decode W bfloat16 payloads (value << 16 — exact). */
    static VF
    loadBf16(const std::uint16_t *p)
    {
        const __m256i raw =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
        return {_mm512_castsi512_ps(
            _mm512_slli_epi32(_mm512_cvtepu16_epi32(raw), 16))};
    }
    static VF
    loadBf16Partial(const std::uint16_t *p, int n)
    {
        alignas(32) std::uint16_t tmp[W] = {};
        for (int i = 0; i < n; ++i)
            tmp[i] = p[i];
        return loadBf16(tmp);
    }
    /** Decode W binary16 payloads (exact widening; AVX512F cvtph). */
    static VF
    loadF16(const std::uint16_t *p)
    {
        const __m256i raw =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
        return {_mm512_cvtph_ps(raw)};
    }
    static VF
    loadF16Partial(const std::uint16_t *p, int n)
    {
        alignas(32) std::uint16_t tmp[W] = {};
        for (int i = 0; i < n; ++i)
            tmp[i] = p[i];
        return loadF16(tmp);
    }
};

struct VD
{
    __m512d v;
    static constexpr int W = 8;

    static VD zero() { return {_mm512_setzero_pd()}; }
    static VD broadcast(double x) { return {_mm512_set1_pd(x)}; }
    static VD load(const double *p) { return {_mm512_loadu_pd(p)}; }
    void store(double *p) const { _mm512_storeu_pd(p, v); }
    static VD
    loadFromFloat(const float *p)
    {
        return {_mm512_cvtps_pd(_mm256_loadu_ps(p))};
    }
    static VD
    loadFromFloatPartial(const float *p, int n)
    {
        // 512-bit masked load (AVX512F; the 256-bit form needs VL),
        // low half converted. n <= 8 keeps the mask in the low lanes.
        const __mmask16 m = __mmask16((1u << n) - 1u);
        const __m512 wide = _mm512_maskz_loadu_ps(m, p);
        return {_mm512_cvtps_pd(_mm512_castps512_ps256(wide))};
    }
    using Mask = __mmask8;
    static Mask maskOf(unsigned bits) { return Mask(bits); }
    static VD
    loadFromFloatMasked(const float *p, Mask m)
    {
        const __m512 wide = _mm512_maskz_loadu_ps(__mmask16(m), p);
        return {_mm512_cvtps_pd(_mm512_castps512_ps256(wide))};
    }
    static VD
    fmaMasked(VD a, VD b, VD acc, Mask m)
    {
        return {_mm512_mask3_fmadd_pd(a.v, b.v, acc.v, m)};
    }
    /** All 8 lanes converted. The maskz form, not _mm512_cvtpd_ps:
     *  GCC's header seeds that one from an "undefined" vector, which
     *  trips -Wuninitialized once the call is inlined deep enough. */
    __m256 toFloat() const { return _mm512_maskz_cvtpd_ps(0xff, v); }
    void
    storeToFloat(float *p) const
    {
        _mm256_storeu_ps(p, toFloat());
    }
    void
    storeToFloatPartial(float *p, int n) const
    {
        // Widen to 512 bits for the F-level masked store; only the
        // low n (<= 8) lanes are written, the rest stay untouched.
        const __m512 wide = _mm512_zextps256_ps512(toFloat());
        _mm512_mask_storeu_ps(p, __mmask16((1u << n) - 1u), wide);
    }
    static VD
    fma(VD a, VD b, VD acc)
    {
        return {_mm512_fmadd_pd(a.v, b.v, acc.v)};
    }
    static VD add(VD a, VD b) { return {_mm512_add_pd(a.v, b.v)}; }
    static VD sub(VD a, VD b) { return {_mm512_sub_pd(a.v, b.v)}; }
    static VD mul(VD a, VD b) { return {_mm512_mul_pd(a.v, b.v)}; }
};

#elif WINOMC_SIMD_LEVEL == 2

struct VF
{
    __m256 v;
    static constexpr int W = 8;

    static VF zero() { return {_mm256_setzero_ps()}; }
    static VF broadcast(float x) { return {_mm256_set1_ps(x)}; }
    static VF load(const float *p) { return {_mm256_loadu_ps(p)}; }
    static VF
    loadPartial(const float *p, int n)
    {
        alignas(32) float tmp[W] = {};
        for (int i = 0; i < n; ++i)
            tmp[i] = p[i];
        return {_mm256_load_ps(tmp)};
    }
    void store(float *p) const { _mm256_storeu_ps(p, v); }
    void
    storePartial(float *p, int n) const
    {
        alignas(32) float tmp[W];
        _mm256_store_ps(tmp, v);
        for (int i = 0; i < n; ++i)
            p[i] = tmp[i];
    }
    static VF
    fma(VF a, VF b, VF acc)
    {
        return {_mm256_fmadd_ps(a.v, b.v, acc.v)};
    }
    static VF add(VF a, VF b) { return {_mm256_add_ps(a.v, b.v)}; }
    static VF mul(VF a, VF b) { return {_mm256_mul_ps(a.v, b.v)}; }
    static VF
    reluOf(VF x)
    {
        return {_mm256_max_ps(x.v, _mm256_setzero_ps())};
    }
    static VF
    gtZeroOne(VF x)
    {
        const __m256 m =
            _mm256_cmp_ps(x.v, _mm256_setzero_ps(), _CMP_GT_OQ);
        return {_mm256_and_ps(m, _mm256_set1_ps(1.0f))};
    }
    static unsigned
    nonzeroBits(VF x)
    {
        return unsigned(_mm256_movemask_ps(
            _mm256_cmp_ps(x.v, _mm256_setzero_ps(), _CMP_NEQ_UQ)));
    }
    /** Decode W bfloat16 payloads (value << 16 — exact). */
    static VF
    loadBf16(const std::uint16_t *p)
    {
        const __m128i raw =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
        return {_mm256_castsi256_ps(
            _mm256_slli_epi32(_mm256_cvtepu16_epi32(raw), 16))};
    }
    static VF
    loadBf16Partial(const std::uint16_t *p, int n)
    {
        alignas(16) std::uint16_t tmp[W] = {};
        for (int i = 0; i < n; ++i)
            tmp[i] = p[i];
        return loadBf16(tmp);
    }
    /** Decode W binary16 payloads (exact widening; F16C cvtph). */
    static VF
    loadF16(const std::uint16_t *p)
    {
        const __m128i raw =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
        return {_mm256_cvtph_ps(raw)};
    }
    static VF
    loadF16Partial(const std::uint16_t *p, int n)
    {
        alignas(16) std::uint16_t tmp[W] = {};
        for (int i = 0; i < n; ++i)
            tmp[i] = p[i];
        return loadF16(tmp);
    }
};

struct VD
{
    __m256d v;
    static constexpr int W = 4;

    static VD zero() { return {_mm256_setzero_pd()}; }
    static VD broadcast(double x) { return {_mm256_set1_pd(x)}; }
    static VD load(const double *p) { return {_mm256_loadu_pd(p)}; }
    void store(double *p) const { _mm256_storeu_pd(p, v); }
    static VD
    loadFromFloat(const float *p)
    {
        return {_mm256_cvtps_pd(_mm_loadu_ps(p))};
    }
    static VD
    loadFromFloatPartial(const float *p, int n)
    {
        alignas(16) float tmp[W] = {};
        for (int i = 0; i < n; ++i)
            tmp[i] = p[i];
        return {_mm256_cvtps_pd(_mm_load_ps(tmp))};
    }
    /** All-ones lanes as doubles (the blend) and as floats (the load). */
    struct Mask
    {
        __m256d d;
        __m128i f;
    };
    static Mask
    maskOf(unsigned bits)
    {
        const __m128i bit = _mm_setr_epi32(1, 2, 4, 8);
        const __m128i f = _mm_cmpeq_epi32(
            _mm_and_si128(_mm_set1_epi32(int(bits)), bit), bit);
        return {_mm256_castsi256_pd(_mm256_cvtepi32_epi64(f)), f};
    }
    static VD
    loadFromFloatMasked(const float *p, const Mask &m)
    {
        return {_mm256_cvtps_pd(_mm_maskload_ps(p, m.f))};
    }
    static VD
    fmaMasked(VD a, VD b, VD acc, const Mask &m)
    {
        return {_mm256_blendv_pd(acc.v, _mm256_fmadd_pd(a.v, b.v, acc.v),
                                 m.d)};
    }
    void
    storeToFloat(float *p) const
    {
        _mm_storeu_ps(p, _mm256_cvtpd_ps(v));
    }
    void
    storeToFloatPartial(float *p, int n) const
    {
        alignas(16) float tmp[W];
        _mm_store_ps(tmp, _mm256_cvtpd_ps(v));
        for (int i = 0; i < n; ++i)
            p[i] = tmp[i];
    }
    static VD
    fma(VD a, VD b, VD acc)
    {
        return {_mm256_fmadd_pd(a.v, b.v, acc.v)};
    }
    static VD add(VD a, VD b) { return {_mm256_add_pd(a.v, b.v)}; }
    static VD sub(VD a, VD b) { return {_mm256_sub_pd(a.v, b.v)}; }
    static VD mul(VD a, VD b) { return {_mm256_mul_pd(a.v, b.v)}; }
};

#endif

/** Fixed-order (pairwise-tree) horizontal sum: deterministic per ISA. */
inline double
hsum(VD x)
{
    double lanes[VD::W];
    x.store(lanes);
    int n = VD::W;
    while (n > 1) {
        for (int i = 0; i < n / 2; ++i)
            lanes[i] = lanes[2 * i] + lanes[2 * i + 1];
        n /= 2;
    }
    return lanes[0];
}

/**
 * vzeroupper. The compiler emits it on the way out of a kernel only
 * after a 256-bit register write, but a VEX.256 instruction that reads
 * memory into an xmm destination (a folded double -> float convert)
 * also leaves the upper state dirty, and then every legacy-SSE
 * instruction of the caller pays for it (a 40x slower scalar loop was
 * measured after such a kernel).
 */
inline void
zeroUpper()
{
    _mm256_zeroupper();
}

/** In-register transpose of a VD::W x VD::W block: lane c of r[l]
 *  becomes lane l of r[c]. Pure data movement. */
inline void
transpose(VD (&r)[VD::W])
{
#if WINOMC_SIMD_LEVEL == 3
    // Pairs of rows (the maskz unpacks: GCC's plain forms seed from an
    // "undefined" vector, which trips -Wuninitialized), then 128-bit
    // lanes across pairs, then 256-bit halves across quads.
    __m512d t[8], u[8];
    for (int q = 0; q < 4; ++q) {
        t[2 * q] = _mm512_maskz_unpacklo_pd(0xff, r[2 * q].v, r[2 * q + 1].v);
        t[2 * q + 1] =
            _mm512_maskz_unpackhi_pd(0xff, r[2 * q].v, r[2 * q + 1].v);
    }
    const __m512i lo2 = _mm512_setr_epi64(0, 1, 8, 9, 4, 5, 12, 13);
    const __m512i hi2 = _mm512_setr_epi64(2, 3, 10, 11, 6, 7, 14, 15);
    for (int h = 0; h < 2; ++h)
        for (int o = 0; o < 2; ++o) {
            // u[4h + o]: lanes 0 + o of rows 4h..4h+3 (and 4 + o);
            // u[4h + 2 + o]: lanes 2 + o (and 6 + o).
            __m512d a = t[4 * h + o], b = t[4 * h + 2 + o];
            u[4 * h + o] = _mm512_permutex2var_pd(a, lo2, b);
            u[4 * h + 2 + o] = _mm512_permutex2var_pd(a, hi2, b);
        }
    // u[0] = col 0|4 of rows 0-3, u[1] = 1|5, u[2] = 2|6, u[3] = 3|7;
    // u[4..7] the same for rows 4-7.
    for (int c = 0; c < 4; ++c) {
        r[c].v = _mm512_shuffle_f64x2(u[c], u[4 + c], 0x44);
        r[4 + c].v = _mm512_shuffle_f64x2(u[c], u[4 + c], 0xee);
    }
#else
    const __m256d t0 = _mm256_unpacklo_pd(r[0].v, r[1].v);
    const __m256d t1 = _mm256_unpackhi_pd(r[0].v, r[1].v);
    const __m256d t2 = _mm256_unpacklo_pd(r[2].v, r[3].v);
    const __m256d t3 = _mm256_unpackhi_pd(r[2].v, r[3].v);
    r[0].v = _mm256_permute2f128_pd(t0, t2, 0x20);
    r[1].v = _mm256_permute2f128_pd(t1, t3, 0x20);
    r[2].v = _mm256_permute2f128_pd(t0, t2, 0x31);
    r[3].v = _mm256_permute2f128_pd(t1, t3, 0x31);
#endif
}

} // namespace simd
} // namespace

#endif // WINOMC_COMMON_SIMD_HH
