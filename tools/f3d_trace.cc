/**
 * @file
 * Offline analyzer for the tracer's Chrome trace-event dumps: loads a
 * trace JSON (written by Tracer::writeChromeTrace via serve_loadgen
 * --trace or bench --trace), reassembles the per-request causal span
 * trees from the "req"/"span"/"parent" args, and reports per-phase
 * attribution and the critical path of each request.
 *
 * Modes:
 *   f3d_trace dump.json                 human-readable report
 *   f3d_trace dump.json --json          machine-readable per-request JSON
 *   f3d_trace dump.json --check         CI gate: every completed request
 *                                       must form a single tree whose
 *                                       attributed phases cover
 *                                       >= --min-coverage (default 0.9)
 *                                       of its measured latency
 *   f3d_trace dump.json --request 17    print one request's span tree
 *   f3d_trace dump.json --top 3         show the 3 slowest requests
 *
 * Exit codes: 0 ok, 1 check failed, 2 parse/usage error.
 *
 * The parser is a minimal recursive-descent JSON reader (no external
 * dependencies, matching the repo's no-new-deps rule); it handles the
 * general JSON grammar, not just the tracer's output shape. Values
 * nested deeper than JsonParser::kMaxDepth are a parse error.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "serve/serve.h"

namespace
{

// --- Minimal JSON value + parser ---------------------------------------

struct JValue
{
    enum class Type
    {
        null,
        boolean,
        number,
        string,
        array,
        object,
    };

    Type type = Type::null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<JValue> arr;
    std::vector<std::pair<std::string, JValue>> obj;

    const JValue *
    find(const char *key) const
    {
        for (const auto &[k, v] : obj)
            if (k == key)
                return &v;
        return nullptr;
    }

    double
    numberOr(const char *key, double fallback) const
    {
        const JValue *v = find(key);
        return v && v->type == Type::number ? v->num : fallback;
    }

    std::string
    stringOr(const char *key, const std::string &fallback) const
    {
        const JValue *v = find(key);
        return v && v->type == Type::string ? v->str : fallback;
    }
};

class JsonParser
{
  public:
    /** Deepest value nesting accepted (the tracer's dumps nest five
     *  values deep). The bound keeps hostile input from overflowing the
     *  stack of this recursive descent and of JValue's recursive
     *  destructor. */
    static constexpr int kMaxDepth = 256;

    explicit JsonParser(const std::string &text) : text_(text) {}

    bool
    parse(JValue &out, std::string &error)
    {
        pos_ = 0;
        depth_ = 0;
        if (!parseValue(out)) {
            error = error_ + " at offset " + std::to_string(pos_);
            return false;
        }
        skipSpace();
        if (pos_ != text_.size()) {
            error = "trailing characters at offset " + std::to_string(pos_);
            return false;
        }
        return true;
    }

  private:
    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    fail(const char *message)
    {
        if (error_.empty())
            error_ = message;
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return fail("bad literal");
        pos_ += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail("expected string");
        ++pos_;
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return fail("bad escape");
                const char e = text_[pos_++];
                switch (e) {
                case '"':
                case '\\':
                case '/':
                    out += e;
                    break;
                case 'n':
                    out += '\n';
                    break;
                case 't':
                    out += '\t';
                    break;
                case 'r':
                    out += '\r';
                    break;
                case 'b':
                case 'f':
                    out += ' ';
                    break;
                case 'u': {
                    if (pos_ + 4 > text_.size())
                        return fail("bad \\u escape");
                    // Keep it simple: decode latin-1 range, replace the
                    // rest with '?' (trace names are ASCII literals).
                    const unsigned code = static_cast<unsigned>(
                        std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16));
                    out += code < 0x80 ? static_cast<char>(code) : '?';
                    pos_ += 4;
                    break;
                }
                default:
                    return fail("unknown escape");
                }
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseValue(JValue &out)
    {
        if (depth_ == kMaxDepth)
            return fail("nesting too deep");
        ++depth_;
        const bool ok = parseValueBody(out);
        --depth_;
        return ok;
    }

    bool
    parseValueBody(JValue &out)
    {
        skipSpace();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            out.type = JValue::Type::object;
            skipSpace();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            for (;;) {
                skipSpace();
                std::string key;
                if (!parseString(key))
                    return false;
                skipSpace();
                if (pos_ >= text_.size() || text_[pos_++] != ':')
                    return fail("expected ':'");
                JValue v;
                if (!parseValue(v))
                    return false;
                out.obj.emplace_back(std::move(key), std::move(v));
                skipSpace();
                if (pos_ >= text_.size())
                    return fail("unterminated object");
                const char d = text_[pos_++];
                if (d == '}')
                    return true;
                if (d != ',')
                    return fail("expected ',' or '}'");
            }
        }
        if (c == '[') {
            ++pos_;
            out.type = JValue::Type::array;
            skipSpace();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            for (;;) {
                JValue v;
                if (!parseValue(v))
                    return false;
                out.arr.push_back(std::move(v));
                skipSpace();
                if (pos_ >= text_.size())
                    return fail("unterminated array");
                const char d = text_[pos_++];
                if (d == ']')
                    return true;
                if (d != ',')
                    return fail("expected ',' or ']'");
            }
        }
        if (c == '"') {
            out.type = JValue::Type::string;
            return parseString(out.str);
        }
        if (c == 't') {
            out.type = JValue::Type::boolean;
            out.b = true;
            return literal("true");
        }
        if (c == 'f') {
            out.type = JValue::Type::boolean;
            out.b = false;
            return literal("false");
        }
        if (c == 'n') {
            out.type = JValue::Type::null;
            return literal("null");
        }
        // Number.
        char *end = nullptr;
        out.num = std::strtod(text_.c_str() + pos_, &end);
        if (end == text_.c_str() + pos_)
            return fail("expected value");
        out.type = JValue::Type::number;
        pos_ = static_cast<std::size_t>(end - text_.c_str());
        return true;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::string error_;
};

// --- Span model ---------------------------------------------------------

/** One trace event, times in milliseconds from the trace epoch. */
struct Span
{
    std::string cat;
    std::string name;
    double t0Ms = 0.0;
    double t1Ms = 0.0;
    std::uint64_t req = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t value = 0;
    bool hasValue = false;
    int tid = 0;
};

/** One request's reassembled tree. */
struct RequestTree
{
    std::uint64_t req = 0;
    int rootIndex = -1; ///< index into spans, the "request" root span
    std::vector<Span> spans;
    std::map<std::uint64_t, std::vector<int>> children; ///< by parent id
    int roots = 0; ///< number of "request"-named spans seen (should be 1)

    double
    latencyMs() const
    {
        const Span &root = spans[static_cast<std::size_t>(rootIndex)];
        return root.t1Ms - root.t0Ms;
    }
};

/** Union length of [b,e) intervals, all clipped beforehand. */
double
unionLength(std::vector<std::pair<double, double>> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    double total = 0.0, hi = -1e300;
    for (const auto &[b, e] : intervals) {
        if (e <= hi)
            continue;
        total += e - std::max(b, hi);
        hi = e;
    }
    return total;
}

/**
 * Fraction of the root span covered by the union of its direct
 * children (the request's attributed phases).
 */
double
coverage(const RequestTree &t)
{
    const Span &root = t.spans[static_cast<std::size_t>(t.rootIndex)];
    const double dur = root.t1Ms - root.t0Ms;
    if (dur <= 0.0)
        return 1.0;
    std::vector<std::pair<double, double>> intervals;
    const auto it = t.children.find(root.id);
    if (it != t.children.end()) {
        for (const int ci : it->second) {
            const Span &c = t.spans[static_cast<std::size_t>(ci)];
            const double b = std::max(c.t0Ms, root.t0Ms);
            const double e = std::min(c.t1Ms, root.t1Ms);
            if (e > b)
                intervals.emplace_back(b, e);
        }
    }
    return unionLength(std::move(intervals)) / dur;
}

/** Per-phase attribution: union of each depth-1 phase's intervals. */
std::map<std::string, double>
phaseBreakdown(const RequestTree &t)
{
    const Span &root = t.spans[static_cast<std::size_t>(t.rootIndex)];
    std::map<std::string, std::vector<std::pair<double, double>>> by_name;
    const auto it = t.children.find(root.id);
    if (it != t.children.end()) {
        for (const int ci : it->second) {
            const Span &c = t.spans[static_cast<std::size_t>(ci)];
            const double b = std::max(c.t0Ms, root.t0Ms);
            const double e = std::min(c.t1Ms, root.t1Ms);
            if (e > b)
                by_name[c.name].emplace_back(b, e);
        }
    }
    std::map<std::string, double> out;
    for (auto &[name, intervals] : by_name)
        out[name] = unionLength(std::move(intervals));
    return out;
}

/**
 * Critical-path attribution: walk the tree backwards through time from
 * the root's end, descending into whichever child span was running;
 * time no child covers is the current span's self-time. The returned
 * per-span-name totals sum to the root's duration.
 */
void
criticalPathWalk(const RequestTree &t, const Span &s, double t_begin,
                 double t_end, std::map<std::string, double> &attr)
{
    double cursor = t_end;
    const auto it = t.children.find(s.id);
    if (it != t.children.end()) {
        // Children sorted by end time, latest first.
        std::vector<int> kids = it->second;
        std::sort(kids.begin(), kids.end(), [&t](int a, int b) {
            return t.spans[static_cast<std::size_t>(a)].t1Ms >
                   t.spans[static_cast<std::size_t>(b)].t1Ms;
        });
        for (const int ci : kids) {
            const Span &c = t.spans[static_cast<std::size_t>(ci)];
            const double c0 = std::max(c.t0Ms, t_begin);
            const double c1 = std::min(c.t1Ms, cursor);
            if (c1 <= c0)
                continue; // does not overlap the remaining window
            attr[s.name] += cursor - c1; // gap: s itself on the path
            criticalPathWalk(t, c, c0, c1, attr);
            cursor = c0;
            if (cursor <= t_begin)
                break;
        }
    }
    if (cursor > t_begin)
        attr[s.name] += cursor - t_begin;
}

std::map<std::string, double>
criticalPath(const RequestTree &t)
{
    std::map<std::string, double> attr;
    const Span &root = t.spans[static_cast<std::size_t>(t.rootIndex)];
    criticalPathWalk(t, root, root.t0Ms, root.t1Ms, attr);
    return attr;
}

std::string
outcomeOf(const RequestTree &t)
{
    const Span &root = t.spans[static_cast<std::size_t>(t.rootIndex)];
    if (!root.hasValue ||
        root.value >= static_cast<std::uint64_t>(fusion3d::serve::kOutcomeCount))
        return "unknown";
    return fusion3d::serve::outcomeName(
        static_cast<fusion3d::serve::Outcome>(root.value));
}

void
printTree(const RequestTree &t, int span_index, int depth)
{
    const Span &s = t.spans[static_cast<std::size_t>(span_index)];
    std::printf("%*s%-24s %-12s %10.3f ms  [%.3f .. %.3f]\n", depth * 2, "",
                s.name.c_str(), s.cat.c_str(), s.t1Ms - s.t0Ms, s.t0Ms, s.t1Ms);
    const auto it = t.children.find(s.id);
    if (it == t.children.end())
        return;
    std::vector<int> kids = it->second;
    std::sort(kids.begin(), kids.end(), [&t](int a, int b) {
        return t.spans[static_cast<std::size_t>(a)].t0Ms <
               t.spans[static_cast<std::size_t>(b)].t0Ms;
    });
    for (const int ci : kids)
        printTree(t, ci, depth + 1);
}

double
exactQuantile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t rank = static_cast<std::size_t>(std::max(
        1.0, std::ceil(q * static_cast<double>(sorted.size()))));
    return sorted[std::min(rank, sorted.size()) - 1];
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    bool check = false, json = false;
    double min_coverage = 0.9;
    std::uint64_t only_request = 0;
    int top = 5;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "f3d_trace: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--check")
            check = true;
        else if (arg == "--json")
            json = true;
        else if (arg == "--min-coverage")
            min_coverage = std::atof(next());
        else if (arg == "--request")
            only_request = std::strtoull(next(), nullptr, 10);
        else if (arg == "--top")
            top = std::atoi(next());
        else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: f3d_trace <trace.json> [--check] [--json]\n"
                "                 [--min-coverage F] [--request ID] [--top N]\n");
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "f3d_trace: unknown flag %s\n", arg.c_str());
            return 2;
        } else {
            path = arg;
        }
    }
    if (path.empty()) {
        std::fprintf(stderr, "usage: f3d_trace <trace.json> [--check] ...\n");
        return 2;
    }

    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "f3d_trace: cannot open %s\n", path.c_str());
        return 2;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    JValue doc;
    std::string error;
    if (!JsonParser(text).parse(doc, error)) {
        std::fprintf(stderr, "f3d_trace: %s: JSON parse error: %s\n",
                     path.c_str(), error.c_str());
        return 2;
    }
    const JValue *events = doc.find("traceEvents");
    if (!events || events->type != JValue::Type::array) {
        std::fprintf(stderr, "f3d_trace: %s: no traceEvents array\n",
                     path.c_str());
        return 2;
    }
    const double dropped = doc.numberOr("f3dDroppedSpans", 0.0);

    // Bucket request-tagged spans by request id (ts/dur are us).
    std::map<std::uint64_t, RequestTree> trees;
    std::size_t total_events = 0, tagged = 0;
    for (const JValue &ev : events->arr) {
        if (ev.type != JValue::Type::object)
            continue;
        ++total_events;
        const JValue *args = ev.find("args");
        if (!args || args->type != JValue::Type::object)
            continue;
        const std::uint64_t req =
            static_cast<std::uint64_t>(args->numberOr("req", 0.0));
        if (req == 0)
            continue;
        ++tagged;
        Span s;
        s.cat = ev.stringOr("cat", "");
        s.name = ev.stringOr("name", "");
        s.t0Ms = ev.numberOr("ts", 0.0) / 1e3;
        s.t1Ms = s.t0Ms + ev.numberOr("dur", 0.0) / 1e3;
        s.req = req;
        s.id = static_cast<std::uint64_t>(args->numberOr("span", 0.0));
        s.parent = static_cast<std::uint64_t>(args->numberOr("parent", 0.0));
        s.tid = static_cast<int>(ev.numberOr("tid", 0.0));
        const JValue *value = args->find("value");
        if (value && value->type == JValue::Type::number) {
            s.value = static_cast<std::uint64_t>(value->num);
            s.hasValue = true;
        }
        RequestTree &t = trees[req];
        t.req = req;
        if (s.cat == "serve" && s.name == "request") {
            ++t.roots;
            t.rootIndex = static_cast<int>(t.spans.size());
        }
        t.spans.push_back(std::move(s));
    }
    for (auto &[req, t] : trees) {
        for (int i = 0; i < static_cast<int>(t.spans.size()); ++i) {
            if (i == t.rootIndex)
                continue;
            t.children[t.spans[static_cast<std::size_t>(i)].parent].push_back(i);
        }
    }

    // Completed requests have exactly one root "request" span; spans of
    // requests still in flight when the trace was written stay orphans.
    std::vector<const RequestTree *> completed;
    std::size_t incomplete = 0;
    for (const auto &[req, t] : trees) {
        if (t.rootIndex >= 0)
            completed.push_back(&t);
        else
            ++incomplete;
    }
    std::sort(completed.begin(), completed.end(),
              [](const RequestTree *a, const RequestTree *b) {
                  return a->latencyMs() > b->latencyMs();
              });

    if (only_request != 0) {
        const auto it = trees.find(only_request);
        if (it == trees.end() || it->second.rootIndex < 0) {
            std::fprintf(stderr, "f3d_trace: request %llu not in trace\n",
                         static_cast<unsigned long long>(only_request));
            return 2;
        }
        const RequestTree &t = it->second;
        std::printf("request %llu  outcome=%s  latency=%.3f ms  "
                    "coverage=%.1f%%\n",
                    static_cast<unsigned long long>(t.req),
                    outcomeOf(t).c_str(), t.latencyMs(), 100.0 * coverage(t));
        printTree(t, t.rootIndex, 0);
        return 0;
    }

    // --check: the CI gate behind the acceptance criterion.
    if (check) {
        int bad = 0;
        for (const RequestTree *t : completed) {
            const double cov = coverage(*t);
            if (t->roots != 1 || cov < min_coverage) {
                ++bad;
                std::fprintf(stderr,
                             "FAIL request %llu: roots=%d coverage=%.1f%% "
                             "(min %.1f%%) latency=%.3f ms\n",
                             static_cast<unsigned long long>(t->req), t->roots,
                             100.0 * cov, 100.0 * min_coverage,
                             t->latencyMs());
            }
        }
        if (completed.empty()) {
            std::fprintf(stderr, "FAIL: no completed requests in trace\n");
            return 1;
        }
        if (dropped > 0)
            std::fprintf(stderr,
                         "warning: tracer dropped %.0f spans (buffers full)\n",
                         dropped);
        std::printf("f3d_trace --check: %zu completed requests, %zu "
                    "incomplete, %d below %.0f%% coverage\n",
                    completed.size(), incomplete, bad, 100.0 * min_coverage);
        return bad == 0 ? 0 : 1;
    }

    // Aggregates.
    std::vector<double> latencies;
    double cov_min = 1.0, cov_sum = 0.0;
    std::map<std::string, double> phase_totals;
    std::map<std::string, double> crit_totals;
    for (const RequestTree *t : completed) {
        latencies.push_back(t->latencyMs());
        const double cov = coverage(*t);
        cov_min = std::min(cov_min, cov);
        cov_sum += cov;
        for (const auto &[name, ms] : phaseBreakdown(*t))
            phase_totals[name] += ms;
        for (const auto &[name, ms] : criticalPath(*t))
            crit_totals[name] += ms;
    }
    const double total_latency =
        std::accumulate(latencies.begin(), latencies.end(), 0.0);

    if (json) {
        std::printf("{\"requests\":[");
        bool first = true;
        for (const RequestTree *t : completed) {
            std::printf("%s{\"id\":%llu,\"outcome\":%s,\"latency_ms\":%.3f,"
                        "\"coverage\":%.4f,\"spans\":%zu,\"phases\":{",
                        first ? "" : ",",
                        static_cast<unsigned long long>(t->req),
                        jsonStr(outcomeOf(*t)).c_str(), t->latencyMs(),
                        coverage(*t), t->spans.size());
            bool pf = true;
            for (const auto &[name, ms] : phaseBreakdown(*t)) {
                std::printf("%s%s:%.3f", pf ? "" : ",", jsonStr(name).c_str(),
                            ms);
                pf = false;
            }
            std::printf("},\"critical_path\":{");
            pf = true;
            for (const auto &[name, ms] : criticalPath(*t)) {
                std::printf("%s%s:%.3f", pf ? "" : ",", jsonStr(name).c_str(),
                            ms);
                pf = false;
            }
            std::printf("}}");
            first = false;
        }
        std::printf("],\"summary\":{\"completed\":%zu,\"incomplete\":%zu,"
                    "\"events\":%zu,\"tagged\":%zu,\"dropped\":%.0f,"
                    "\"p50_ms\":%.3f,\"p99_ms\":%.3f,\"coverage_min\":%.4f,"
                    "\"coverage_mean\":%.4f}}\n",
                    completed.size(), incomplete, total_events, tagged, dropped,
                    exactQuantile(latencies, 0.5), exactQuantile(latencies, 0.99),
                    completed.empty() ? 0.0 : cov_min,
                    completed.empty()
                        ? 0.0
                        : cov_sum / static_cast<double>(completed.size()));
        return 0;
    }

    // Human-readable report.
    std::printf("trace: %s\n", path.c_str());
    std::printf("  events %zu (request-tagged %zu, dropped %.0f), "
                "requests completed %zu, incomplete %zu\n",
                total_events, tagged, dropped, completed.size(), incomplete);
    if (completed.empty())
        return 0;
    std::printf("  latency: p50 %.3f ms  p99 %.3f ms  max %.3f ms\n",
                exactQuantile(latencies, 0.5), exactQuantile(latencies, 0.99),
                *std::max_element(latencies.begin(), latencies.end()));
    std::printf("  phase coverage: min %.1f%%  mean %.1f%%\n",
                100.0 * cov_min,
                100.0 * cov_sum / static_cast<double>(completed.size()));
    std::printf("\nper-phase attribution (union of depth-1 spans, all "
                "requests):\n");
    std::vector<std::pair<std::string, double>> phases(phase_totals.begin(),
                                                       phase_totals.end());
    std::sort(phases.begin(), phases.end(),
              [](const auto &a, const auto &b) { return a.second > b.second; });
    for (const auto &[name, ms] : phases)
        std::printf("  %-24s %10.3f ms  %5.1f%%\n", name.c_str(), ms,
                    total_latency > 0.0 ? 100.0 * ms / total_latency : 0.0);
    std::printf("\ncritical path (time attributed along the dominant "
                "chain):\n");
    std::vector<std::pair<std::string, double>> crit(crit_totals.begin(),
                                                     crit_totals.end());
    std::sort(crit.begin(), crit.end(),
              [](const auto &a, const auto &b) { return a.second > b.second; });
    for (const auto &[name, ms] : crit)
        std::printf("  %-24s %10.3f ms  %5.1f%%\n", name.c_str(), ms,
                    total_latency > 0.0 ? 100.0 * ms / total_latency : 0.0);
    const int show = std::min<int>(top, static_cast<int>(completed.size()));
    std::printf("\nslowest %d requests:\n", show);
    for (int i = 0; i < show; ++i) {
        const RequestTree &t = *completed[static_cast<std::size_t>(i)];
        std::printf("  request %llu  %s  %.3f ms  coverage %.1f%%\n",
                    static_cast<unsigned long long>(t.req),
                    outcomeOf(t).c_str(), t.latencyMs(), 100.0 * coverage(t));
        std::vector<std::pair<std::string, double>> breakdown;
        for (const auto &[name, ms] : phaseBreakdown(t))
            breakdown.emplace_back(name, ms);
        std::sort(breakdown.begin(), breakdown.end(),
                  [](const auto &a, const auto &b) {
                      return a.second > b.second;
                  });
        for (const auto &[name, ms] : breakdown)
            std::printf("      %-22s %10.3f ms\n", name.c_str(), ms);
    }
    return 0;
}
