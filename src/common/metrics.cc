#include "common/metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "common/stats.hh"

namespace winomc::metrics {

std::atomic<bool> gEnabled{false};

namespace {

std::atomic<bool> gWarnedHistShape{false};

/** Accumulation state of one metric inside one shard (or merged). */
struct Value
{
    Kind kind = Kind::Counter;
    double value = 0.0;
    std::uint64_t count = 0;
    double totalSec = 0.0;
    double minSec = 0.0;
    double maxSec = 0.0;
    std::shared_ptr<winomc::Histogram> hist; ///< Kind::Histogram only
    std::uint64_t exemplarId = 0;            ///< Kind::Histogram only
    double exemplarValue = 0.0;

    void
    takeExemplar(std::uint64_t id, double v)
    {
        // Keep the largest-valued exemplar: the outlier worth chasing.
        if (id && (!exemplarId || v > exemplarValue)) {
            exemplarId = id;
            exemplarValue = v;
        }
    }

    void
    mergeHist(const winomc::Histogram &o)
    {
        if (!hist) {
            hist = std::make_shared<winomc::Histogram>(o);
        } else if (hist->sameShape(o)) {
            hist->merge(o);
        } else if (!gWarnedHistShape.exchange(true)) {
            winomc_warn("histogram metric recorded with conflicting "
                        "bucket layouts; keeping the first layout's "
                        "buckets (count/sum still aggregate)");
        }
    }

    void
    mergeFrom(const Value &o)
    {
        kind = o.kind;
        value += o.value;
        if (o.kind == Kind::Gauge)
            value = o.value;
        if (o.kind == Kind::Timer) {
            minSec = count ? std::min(minSec, o.minSec) : o.minSec;
            maxSec = count ? std::max(maxSec, o.maxSec) : o.maxSec;
        }
        count += o.count;
        totalSec += o.totalSec;
        if (o.hist)
            mergeHist(*o.hist);
        takeExemplar(o.exemplarId, o.exemplarValue);
    }
};

using ValueMap = std::map<std::string, Value>;

/**
 * Per-thread accumulation shard. The owning thread takes the shard
 * mutex for each record; snapshot/reset take it briefly from outside.
 * The mutex is uncontended except during a snapshot, so the enabled
 * hot path stays cheap and TSan-clean.
 */
struct Shard
{
    std::mutex mu;
    ValueMap values;
};

struct Registry
{
    std::mutex mu;
    std::vector<std::shared_ptr<Shard>> shards;
    ValueMap retired; ///< gauges + shards of exited threads
    std::string path; ///< WINOMC_METRICS, if set

    static Registry &
    instance()
    {
        static Registry *r = new Registry; // never destroyed: shards
        return *r;                         // may outlive main()
    }
};

/** Registers this thread's shard on first use, merges it on exit. */
struct ShardHandle
{
    std::shared_ptr<Shard> shard = std::make_shared<Shard>();

    ShardHandle()
    {
        Registry &r = Registry::instance();
        std::lock_guard<std::mutex> lk(r.mu);
        r.shards.push_back(shard);
    }

    ~ShardHandle()
    {
        Registry &r = Registry::instance();
        std::lock_guard<std::mutex> lk(r.mu);
        {
            std::lock_guard<std::mutex> slk(shard->mu);
            for (const auto &[name, v] : shard->values)
                r.retired[name].mergeFrom(v);
            shard->values.clear();
        }
        r.shards.erase(
            std::remove(r.shards.begin(), r.shards.end(), shard),
            r.shards.end());
    }
};

Shard &
localShard()
{
    thread_local ShardHandle handle;
    return *handle.shard;
}

void
dumpAtExit()
{
    dumpIfConfigured();
}

/** Reads WINOMC_METRICS once and arms the at-exit dump. */
struct EnvInit
{
    EnvInit()
    {
        const char *p = std::getenv("WINOMC_METRICS");
        if (p && *p) {
            Registry::instance().path = p;
            gEnabled.store(true, std::memory_order_relaxed);
            std::atexit(dumpAtExit);
        }
    }
};
EnvInit envInit;

/**
 * Render a percentile for a dump: NaN (an empty histogram has no
 * percentiles) becomes "-" — quoted in JSON so the document stays
 * valid, bare in CSV. The metrics_io parsers map "-" back to NaN.
 */
std::string
fmtPercentile(double v, bool json)
{
    if (std::isnan(v))
        return json ? "\"-\"" : "-";
    std::ostringstream oss;
    oss.precision(17);
    oss << v;
    return oss.str();
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

ValueMap
mergedValues()
{
    Registry &r = Registry::instance();
    std::lock_guard<std::mutex> lk(r.mu);
    // Build fresh Values via mergeFrom (never copy the maps wholesale):
    // histogram payloads are cloned on first merge, so the snapshot
    // cannot alias — and later mutate — registry state.
    ValueMap out;
    for (const auto &[name, v] : r.retired)
        out[name].mergeFrom(v);
    for (const auto &shard : r.shards) {
        std::lock_guard<std::mutex> slk(shard->mu);
        for (const auto &[name, v] : shard->values)
            out[name].mergeFrom(v);
    }
    return out;
}

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Counter:
        return "counter";
      case Kind::Gauge:
        return "gauge";
      case Kind::Timer:
        return "timer";
      case Kind::Histogram:
        return "histogram";
    }
    return "?";
}

/**
 * Run-scope prefix. Readers load an immutable string published with
 * release ordering. setRunScope publishes a pointer into an interned
 * set that is never destroyed and never erases, so a concurrent reader
 * can never see its scope die, and each distinct scope is stored once.
 */
std::atomic<const std::string *> gScope{nullptr};

const std::string *
internScope(const std::string &scope)
{
    static std::mutex mu;
    static auto *scopes = new std::set<std::string>; // never destroyed
    std::lock_guard<std::mutex> lk(mu);
    return &*scopes->insert(scope).first;
}

std::string
scopedKey(const char *name)
{
    const std::string *scope =
        gScope.load(std::memory_order_acquire);
    if (!scope)
        return name;
    std::string key;
    key.reserve(scope->size() + 1 + std::strlen(name));
    key += *scope;
    key += '/';
    key += name;
    return key;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              unsigned(static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** RFC 4180 quoting: fields carrying separators/quotes/newlines are
 *  wrapped in quotes with embedded quotes doubled. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

void
setEnabled(bool on)
{
    gEnabled.store(on, std::memory_order_relaxed);
}

const std::string &
configuredPath()
{
    return Registry::instance().path;
}

void
setConfiguredPath(const std::string &path)
{
    Registry::instance().path = path;
}

void
counterAdd(const char *name, double v)
{
    if (!enabled())
        return;
    Shard &s = localShard();
    std::lock_guard<std::mutex> lk(s.mu);
    Value &val = s.values[scopedKey(name)];
    val.kind = Kind::Counter;
    val.value += v;
    ++val.count;
}

void
gaugeSet(const char *name, double v)
{
    if (!enabled())
        return;
    Registry &r = Registry::instance();
    std::lock_guard<std::mutex> lk(r.mu);
    Value &val = r.retired[scopedKey(name)];
    val.kind = Kind::Gauge;
    val.value = v;
    ++val.count;
}

void
timerAdd(const char *name, double seconds)
{
    if (!enabled())
        return;
    Shard &s = localShard();
    std::lock_guard<std::mutex> lk(s.mu);
    Value &val = s.values[scopedKey(name)];
    val.kind = Kind::Timer;
    val.minSec = val.count ? std::min(val.minSec, seconds) : seconds;
    val.maxSec = val.count ? std::max(val.maxSec, seconds) : seconds;
    val.totalSec += seconds;
    ++val.count;
}

void
histogramAdd(const char *name, double v, double lo, double hi,
             int buckets)
{
    histogramAddExemplar(name, v, lo, hi, buckets, 0);
}

void
histogramAddExemplar(const char *name, double v, double lo, double hi,
                     int buckets, std::uint64_t exemplarId)
{
    if (!enabled())
        return;
    Shard &s = localShard();
    std::lock_guard<std::mutex> lk(s.mu);
    Value &val = s.values[scopedKey(name)];
    val.kind = Kind::Histogram;
    if (!val.hist) {
        val.hist =
            std::make_shared<winomc::Histogram>(lo, hi, buckets);
    }
    val.hist->add(v);
    val.value += v;
    ++val.count;
    val.takeExemplar(exemplarId, v);
}

void
histogramRegister(const char *name, double lo, double hi, int buckets)
{
    if (!enabled())
        return;
    Shard &s = localShard();
    std::lock_guard<std::mutex> lk(s.mu);
    Value &val = s.values[scopedKey(name)];
    val.kind = Kind::Histogram;
    if (!val.hist)
        val.hist =
            std::make_shared<winomc::Histogram>(lo, hi, buckets);
}

void
histogramMerge(const char *name, const winomc::Histogram &h)
{
    if (!enabled() || h.count() == 0)
        return;
    Shard &s = localShard();
    std::lock_guard<std::mutex> lk(s.mu);
    Value &val = s.values[scopedKey(name)];
    val.kind = Kind::Histogram;
    val.mergeHist(h);
    val.value += h.sum();
    val.count += h.count();
}

void
setRunScope(const std::string &scope)
{
    gScope.store(scope.empty() ? nullptr : internScope(scope),
                 std::memory_order_release);
}

std::string
runScope()
{
    const std::string *scope =
        gScope.load(std::memory_order_acquire);
    return scope ? *scope : std::string();
}

std::vector<Sample>
snapshot()
{
    std::vector<Sample> out;
    for (const auto &[name, v] : mergedValues()) {
        Sample s;
        s.name = name;
        s.kind = v.kind;
        s.value = v.value;
        s.count = v.count;
        s.totalSec = v.totalSec;
        s.minSec = v.minSec;
        s.maxSec = v.maxSec;
        if (v.hist) {
            s.p50 = v.hist->percentile(0.50);
            s.p90 = v.hist->percentile(0.90);
            s.p99 = v.hist->percentile(0.99);
            s.hist = v.hist; // merged clone owned by this snapshot
        }
        s.exemplarId = v.exemplarId;
        s.exemplarValue = v.exemplarValue;
        out.push_back(std::move(s));
    }
    return out; // std::map iteration is already name-sorted
}

std::vector<Sample>
snapshotDelta(DeltaBaseline &base)
{
    std::vector<Sample> cum = snapshot();
    std::vector<Sample> out;
    out.reserve(cum.size());
    std::map<std::string, Sample> next;
    for (Sample &s : cum) {
        Sample d = s; // keeps percentiles/exemplar/hist cumulative
        if (s.kind != Kind::Gauge) {
            auto it = base.prev.find(s.name);
            if (it != base.prev.end()) {
                d.value -= it->second.value;
                d.count -= it->second.count;
                d.totalSec -= it->second.totalSec;
            }
        }
        // The baseline only needs the differenced fields; drop the
        // histogram payload so baselines stay small.
        Sample b;
        b.name = s.name;
        b.kind = s.kind;
        b.value = s.value;
        b.count = s.count;
        b.totalSec = s.totalSec;
        next.emplace(b.name, std::move(b));
        out.push_back(std::move(d));
    }
    base.prev = std::move(next);
    return out;
}

void
reset()
{
    Registry &r = Registry::instance();
    std::lock_guard<std::mutex> lk(r.mu);
    r.retired.clear();
    for (const auto &shard : r.shards) {
        std::lock_guard<std::mutex> slk(shard->mu);
        shard->values.clear();
    }
}

std::string
toJson()
{
    std::ostringstream oss;
    oss.precision(17);
    oss << "{\n  \"metrics\": [";
    bool first = true;
    for (const Sample &s : snapshot()) {
        oss << (first ? "\n" : ",\n");
        first = false;
        oss << "    {\"name\": \"" << jsonEscape(s.name)
            << "\", \"kind\": \"" << kindName(s.kind)
            << "\", \"count\": " << s.count;
        if (s.kind == Kind::Timer) {
            oss << ", \"total_sec\": " << s.totalSec
                << ", \"min_sec\": " << s.minSec
                << ", \"max_sec\": " << s.maxSec;
        } else if (s.kind == Kind::Histogram) {
            oss << ", \"sum\": " << s.value
                << ", \"mean\": " << s.mean()
                << ", \"p50\": " << fmtPercentile(s.p50, true)
                << ", \"p90\": " << fmtPercentile(s.p90, true)
                << ", \"p99\": " << fmtPercentile(s.p99, true);
        } else {
            oss << ", \"value\": " << s.value;
        }
        oss << "}";
    }
    oss << "\n  ]\n}\n";
    return oss.str();
}

std::string
toCsv()
{
    std::ostringstream oss;
    oss.precision(17);
    oss << "name,kind,count,value,total_sec,min_sec,max_sec,"
           "p50,p90,p99\n";
    for (const Sample &s : snapshot()) {
        oss << csvField(s.name) << "," << kindName(s.kind) << ","
            << s.count << "," << s.value << "," << s.totalSec << ","
            << s.minSec << "," << s.maxSec << ","
            << fmtPercentile(s.p50, false) << ","
            << fmtPercentile(s.p90, false) << ","
            << fmtPercentile(s.p99, false) << "\n";
    }
    return oss.str();
}

void
dumpToFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        winomc_warn("cannot write metrics dump to '", path, "'");
        return;
    }
    std::string body = endsWith(path, ".csv") ? toCsv() : toJson();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
}

void
dumpIfConfigured()
{
    const std::string &path = configuredPath();
    if (path.empty())
        return;
    dumpToFile(path);
}

} // namespace winomc::metrics
