#include "winograd/exec_config.hh"

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "common/logging.hh"

namespace winomc {

namespace {

struct Token
{
    const char *text;
    int value;
};

/**
 * One environment knob: its accepted spellings and the field they set.
 * The first spelling of each value is that value's name; the names in
 * table order are what a warning asks for.
 */
struct Knob
{
    const char *env;
    std::vector<Token> tokens;
    void (*set)(ExecConfig &, int);
};

enum KnobId { kIsa, kPrec, kSparse, kTune };

const std::vector<Knob> &
knobs()
{
    static const std::vector<Knob> table = {
        {"WINOMC_ISA",
         {{"auto", int(mk::Isa::Auto)},
          {"scalar", int(mk::Isa::Scalar)},
          {"avx2", int(mk::Isa::Avx2)},
          {"avx512", int(mk::Isa::Avx512)}},
         [](ExecConfig &c, int v) { c.isa = mk::Isa(v); }},
        {"WINOMC_PREC",
         {{"fp32", int(Prec::F32)},
          {"f32", int(Prec::F32)},
          {"fp16", int(Prec::F16)},
          {"f16", int(Prec::F16)},
          {"bf16", int(Prec::Bf16)},
          {"bfloat16", int(Prec::Bf16)}},
         [](ExecConfig &c, int v) { c.prec = Prec(v); }},
        {"WINOMC_SPARSE",
         {{"on", 1}, {"1", 1}, {"true", 1},
          {"off", 0}, {"0", 0}, {"false", 0}},
         [](ExecConfig &c, int v) { c.sparse = v != 0; }},
        {"WINOMC_TUNE",
         {{"off", int(tune::TuneMode::Off)},
          {"analytic", int(tune::TuneMode::Analytic)},
          {"measure", int(tune::TuneMode::Measure)}},
         [](ExecConfig &c, int v) { c.tune = tune::TuneMode(v); }},
    };
    return table;
}

/** The name of `value`: its first spelling in the knob's table. */
const char *
nameOf(const Knob &k, int value)
{
    for (const Token &t : k.tokens)
        if (t.value == value)
            return t.text;
    return "?";
}

/** "name|name|..." over the knob's values, quoted by the warning. */
std::string
names(const Knob &k)
{
    std::string out;
    for (const Token &t : k.tokens)
        if (nameOf(k, t.value) == t.text) // not an alias
            out.append(out.empty() ? "" : "|").append(t.text);
    return out;
}

/** Trimmed, lowercased copy of `raw`. */
std::string
normalized(const char *raw)
{
    std::string_view s(raw);
    auto blank = [](char ch) {
        return std::isspace(static_cast<unsigned char>(ch)) != 0;
    };
    while (!s.empty() && blank(s.front()))
        s.remove_prefix(1);
    while (!s.empty() && blank(s.back()))
        s.remove_suffix(1);
    std::string out;
    for (char ch : s)
        out += char(std::tolower(static_cast<unsigned char>(ch)));
    return out;
}

// The live config packs one byte per field into a single atomic word,
// so readers never need a lock and never see a torn config.

std::uint64_t
pack(const ExecConfig &c)
{
    return std::uint64_t(std::uint8_t(c.isa)) |
           std::uint64_t(std::uint8_t(c.prec)) << 8 |
           std::uint64_t(c.sparse) << 16 |
           std::uint64_t(std::uint8_t(c.tune)) << 24;
}

ExecConfig
unpack(std::uint64_t v)
{
    ExecConfig c;
    c.isa = mk::Isa(v & 0xff);
    c.prec = Prec((v >> 8) & 0xff);
    c.sparse = ((v >> 16) & 0xff) != 0;
    c.tune = tune::TuneMode((v >> 24) & 0xff);
    return c;
}

std::atomic<std::uint64_t> &
live()
{
    static_assert(std::atomic<std::uint64_t>::is_always_lock_free);
    static std::atomic<std::uint64_t> word{
        pack(parseExecConfig(std::getenv))};
    return word;
}

} // namespace

const char *
tune::tuneModeName(TuneMode m)
{
    return nameOf(knobs()[kTune], int(m));
}

const char *
precName(Prec p)
{
    return nameOf(knobs()[kPrec], int(p));
}

const char *
mk::isaName(Isa isa)
{
    return nameOf(knobs()[kIsa], int(isa));
}

std::string
ExecConfig::key() const
{
    std::string s;
    if (prec == Prec::F16)
        s += "_fp16";
    else if (prec == Prec::Bf16)
        s += "_bf16";
    if (sparse)
        s += "_sp";
    return s;
}

ExecConfig
parseExecConfig(const std::function<const char *(const char *)> &lookup)
{
    ExecConfig cfg;
    for (const Knob &k : knobs()) {
        const char *raw = lookup(k.env);
        if (!raw || !*raw)
            continue;
        const std::string s = normalized(raw);
        bool known = false;
        for (const Token &t : k.tokens) {
            if (s == t.text) {
                k.set(cfg, t.value);
                known = true;
                break;
            }
        }
        if (!known)
            winomc_warn("ignoring unrecognized ", k.env, " '", raw,
                        "' (want ", names(k), ")");
    }
    return cfg;
}

ExecConfig
execConfig()
{
    return unpack(live().load(std::memory_order_acquire));
}

ScopedExecConfig::ScopedExecConfig(const ExecConfig &cfg)
    : prev(execConfig())
{
    live().store(pack(cfg), std::memory_order_release);
}

ScopedExecConfig::ScopedExecConfig(
    const std::function<void(ExecConfig &)> &edit)
    : prev(execConfig())
{
    ExecConfig cfg = prev;
    edit(cfg);
    live().store(pack(cfg), std::memory_order_release);
}

ScopedExecConfig::~ScopedExecConfig()
{
    live().store(pack(prev), std::memory_order_release);
}

} // namespace winomc
