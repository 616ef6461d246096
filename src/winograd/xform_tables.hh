/**
 * @file
 * Compile-time copies of the Toom-Cook transforms the vector
 * micro-kernels specialize on (DESIGN §4.10).
 *
 * The entries are the exact rationals generateToomCook() derives for
 * the default points 0, 1, -1, 2, -2, 3, -3, written as num / den so
 * the compiler rounds each to the same double Rational::toDouble()
 * yields. tests/simd_test.cpp checks them against the generator
 * bitwise, so a change to toom_cook cannot silently desync them.
 *
 * Every 2-D transform of the pipeline is a sandwich out = M * in * M^T
 * with M one of B^T (input), B (input adjoint), A^T (inverse) or A
 * (inverse adjoint). TabledXform<Id> names the sandwich matrix of
 * tabled transform Id; mk::xformBodies() maps a run-time (L, R) pair
 * to its Id by value.
 */

#ifndef WINOMC_WINOGRAD_XFORM_TABLES_HH
#define WINOMC_WINOGRAD_XFORM_TABLES_HH

#include <tuple>

namespace winomc::mk::xf {

/** F(2x2, 3x3). */
struct F2x3
{
    static constexpr int m = 2, alpha = 4;
    static constexpr double BT[4][4] = {
        {1, 0, -1, 0},
        {0, 1.0 / 2, 1.0 / 2, 0},
        {0, -1.0 / 2, 1.0 / 2, 0},
        {0, -1, 0, 1},
    };
    static constexpr double AT[2][4] = {
        {1, 1, 1, 0},
        {0, 1, -1, 1},
    };
};

/** F(4x4, 3x3). */
struct F4x3
{
    static constexpr int m = 4, alpha = 6;
    static constexpr double BT[6][6] = {
        {1, 0, -5.0 / 4, 0, 1.0 / 4, 0},
        {0, 2.0 / 3, 2.0 / 3, -1.0 / 6, -1.0 / 6, 0},
        {0, -2.0 / 3, 2.0 / 3, 1.0 / 6, -1.0 / 6, 0},
        {0, -1.0 / 12, -1.0 / 24, 1.0 / 12, 1.0 / 24, 0},
        {0, 1.0 / 12, -1.0 / 24, -1.0 / 12, 1.0 / 24, 0},
        {0, 4, 0, -5, 0, 1},
    };
    static constexpr double AT[4][6] = {
        {1, 1, 1, 1, 1, 0},
        {0, 1, -1, 2, -2, 0},
        {0, 1, 1, 4, 4, 0},
        {0, 1, -1, 8, -8, 1},
    };
};

/** F(6x6, 3x3). */
struct F6x3
{
    static constexpr int m = 6, alpha = 8;
    static constexpr double BT[8][8] = {
        {1, 0, -49.0 / 36, 0, 7.0 / 18, 0, -1.0 / 36, 0},
        {0, 3.0 / 4, 3.0 / 4, -13.0 / 48, -13.0 / 48, 1.0 / 48, 1.0 / 48,
         0},
        {0, -3.0 / 4, 3.0 / 4, 13.0 / 48, -13.0 / 48, -1.0 / 48, 1.0 / 48,
         0},
        {0, -3.0 / 20, -3.0 / 40, 1.0 / 6, 1.0 / 12, -1.0 / 60,
         -1.0 / 120, 0},
        {0, 3.0 / 20, -3.0 / 40, -1.0 / 6, 1.0 / 12, 1.0 / 60, -1.0 / 120,
         0},
        {0, 1.0 / 60, 1.0 / 180, -1.0 / 48, -1.0 / 144, 1.0 / 240,
         1.0 / 720, 0},
        {0, -1.0 / 60, 1.0 / 180, 1.0 / 48, -1.0 / 144, -1.0 / 240,
         1.0 / 720, 0},
        {0, -36, 0, 49, 0, -14, 0, 1},
    };
    static constexpr double AT[6][8] = {
        {1, 1, 1, 1, 1, 1, 1, 0},
        {0, 1, -1, 2, -2, 3, -3, 0},
        {0, 1, 1, 4, 4, 9, 9, 0},
        {0, 1, -1, 8, -8, 27, -27, 0},
        {0, 1, 1, 16, 16, 81, 81, 0},
        {0, 1, -1, 32, -32, 243, -243, 1},
    };
};

/** The algorithms with tabled transforms, in Id order. */
using TabledAlgos = std::tuple<F2x3, F4x3, F6x3>;

/** Sandwich orientations, in Id order within one algorithm. */
enum Orient : int
{
    kInput = 0,        ///< M = B^T: transformInputInto
    kInputAdjoint = 1, ///< M = B:   transformInputAdjointInto
    kInverse = 2,      ///< M = A^T: inverseTransformInto
    kInverseAdjoint = 3, ///< M = A: inverseTransformAdjointInto
    kOrients = 4,
};

constexpr int kTabledXforms =
    int(std::tuple_size_v<TabledAlgos>) * kOrients;

/**
 * The sandwich matrix M (rows x cols) of tabled transform Id: out =
 * M * in * M^T, so L = M (rows x cols) and R = M^T (cols x rows).
 */
template <int Id>
struct TabledXform
{
    using Algo = std::tuple_element_t<Id / kOrients, TabledAlgos>;
    static constexpr int orient = Id % kOrients;
    static constexpr bool inverse = orient >= kInverse;
    static constexpr bool transposed = orient % 2 == 1;
    /** Shape of the stored table: B^T (alpha x alpha) or A^T (m x alpha). */
    static constexpr int tRows = inverse ? Algo::m : Algo::alpha;
    static constexpr int tCols = Algo::alpha;
    static constexpr int rows = transposed ? tCols : tRows;
    static constexpr int cols = transposed ? tRows : tCols;

    static constexpr double
    at(int i, int t)
    {
        const int r = transposed ? t : i;
        const int c = transposed ? i : t;
        if constexpr (inverse)
            return Algo::AT[r][c];
        else
            return Algo::BT[r][c];
    }
};

} // namespace winomc::mk::xf

#endif // WINOMC_WINOGRAD_XFORM_TABLES_HH
