// check_bench_json: validates BENCH_*.json perf records.
//
//   check_bench_json BENCH_a.json [BENCH_b.json ...]
//
// Every bench binary persists a BenchRecord (bench/bench_common.h) so PRs
// can regress against a perf trajectory; CI runs the benches in --smoke
// mode and gates on this validator so a malformed record (bad escaping,
// non-finite metric printed as "inf"/"nan", truncated write) fails the
// build instead of silently poisoning the trajectory.
//
// A record must be a JSON object of exactly
//   { "bench": <non-empty string>,
//     "params": { <string>: <number>, ... },
//     "metrics": { <string>: <number>, ... },
//     "labels": { <string>: <string>, ... } }
// JSON has no inf/nan literals, so finiteness comes free from parsing.
//
// Benches whose records downstream tooling keys on additionally have a
// required-metric schema (kKnownBenches): a record that parses but lost
// its headline metrics (a refactor renamed a key, a sweep emitted no
// cells) fails validation instead of silently emptying the trajectory.
//
// The fleet_throughput record additionally carries a scaling-curve gate
// over decides_per_sec_shards_{1,2,4,8,16}: the serving read path is
// wait-free, so adding shards must never collapse throughput. The gate is
// capacity-aware via the record's own params -- strict (monotone within
// 0.92, 16-shard >= 6x single-shard) when the measuring host reported
// hw_threads >= 16, non-collapse (monotone within 0.85, 16-shard >= 0.9x)
// on smaller hosts, and collapse-only (0.5x) for --smoke records, whose
// sizes are too small to time scaling honestly.
//
// The fleet_solve record carries two gates, both mirroring the bench's own
// checks. (1) eval_batched_speedup >= 3 on full records (the win over the
// pre-kernel per-campaign evaluator is algorithmic -- shared pmf blocks
// plus kernel layer scans -- so it holds on any core count); smoke waves
// are too small to amortize and only gate against being slower (>= 0.5).
// (2) share_blocks_shared > 0: a wave stamped from repeated rate profiles
// must share pmf blocks.
//
// The serving_remote and serving_router records carry a latency-quantile
// gate: every p50 metric (p50_ms, p50_ms_<cell>, direct_p50_ms) must be
// positive and no larger than the p99 metric of the same name. The benches
// read both quantiles off one merged load-generator histogram, so an empty
// or mis-merged histogram reads 0 or inverts the pair -- and smoke mode
// tolerates the benches' own failed CHECKs, so only this gate catches it.
// Exit code 0 when every file validates, 1 otherwise.

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// A tiny strict JSON parser (no dependencies; values only as deep as the
// record format needs, but the grammar is complete).
// ---------------------------------------------------------------------------

struct JsonValue;
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      value = nullptr;

  bool is_string() const { return value.index() == 3; }
  bool is_number() const { return value.index() == 2; }
  bool is_object() const { return value.index() == 5; }
  const std::string& as_string() const { return std::get<std::string>(value); }
  const JsonObject& as_object() const {
    return *std::get<std::shared_ptr<JsonObject>>(value);
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue& out, std::string& error) {
    error_ = &error;
    pos_ = 0;
    if (!ParseValue(out)) return false;
    SkipSpace();
    if (pos_ != text_.size()) return Fail("trailing content after JSON value");
    return true;
  }

 private:
  bool Fail(const std::string& message) {
    *error_ = message + " (at byte " + std::to_string(pos_) + ")";
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool ParseValue(JsonValue& out) {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      std::string s;
      if (!ParseString(s)) return false;
      out.value = s;
      return true;
    }
    if (c == 't' || c == 'f') return ParseKeyword(out);
    if (c == 'n') return ParseKeyword(out);
    return ParseNumber(out);
  }

  bool ParseKeyword(JsonValue& out) {
    auto match = [&](const char* word) {
      return text_.compare(pos_, std::string(word).size(), word) == 0;
    };
    if (match("true")) {
      out.value = true;
      pos_ += 4;
      return true;
    }
    if (match("false")) {
      out.value = false;
      pos_ += 5;
      return true;
    }
    if (match("null")) {
      out.value = nullptr;
      pos_ += 4;
      return true;
    }
    return Fail("invalid literal");
  }

  bool ParseNumber(JsonValue& out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return Fail("invalid number");
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("digits required after decimal point");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return Fail("digits required in exponent");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string numeral = text_.substr(start, pos_ - start);
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(numeral.c_str(), &end);
    if (end != numeral.c_str() + numeral.size()) {
      return Fail("invalid number");
    }
    // Overflow to infinity is malformed (the record format promises
    // finite metrics); underflow to a (sub)normal tiny value is fine.
    if (errno == ERANGE && (parsed > 1.0 || parsed < -1.0)) {
      return Fail("number out of double range");
    }
    out.value = parsed;
    return true;
  }

  bool ParseString(std::string& out) {
    if (!Consume('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
              return Fail("invalid \\u escape");
            }
          }
          // The record format never emits non-ASCII; keep the escape
          // verbatim rather than decoding UTF-16 surrogates.
          out += "\\u" + text_.substr(pos_, 4);
          pos_ += 4;
          break;
        }
        default:
          return Fail("invalid escape character");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseArray(JsonValue& out) {
    if (!Consume('[')) return false;
    auto array = std::make_shared<JsonArray>();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      out.value = array;
      return true;
    }
    while (true) {
      JsonValue element;
      if (!ParseValue(element)) return false;
      array->push_back(std::move(element));
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (!Consume(']')) return false;
    out.value = array;
    return true;
  }

  bool ParseObject(JsonValue& out) {
    if (!Consume('{')) return false;
    auto object = std::make_shared<JsonObject>();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      out.value = object;
      return true;
    }
    while (true) {
      std::string key;
      SkipSpace();
      if (!ParseString(key)) return false;
      if (!Consume(':')) return false;
      JsonValue element;
      if (!ParseValue(element)) return false;
      object->emplace_back(std::move(key), std::move(element));
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (!Consume('}')) return false;
    out.value = object;
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string* error_ = nullptr;
};

// ---------------------------------------------------------------------------
// Record-shape validation
// ---------------------------------------------------------------------------

const JsonValue* FindKey(const JsonObject& object, const std::string& key) {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

// Per-bench required metrics: every listed key must be present, and for
// every listed prefix at least one metric key must start with it (sweep
// benches emit one key per swept cell).
struct BenchRequirements {
  const char* bench;
  std::vector<const char*> metrics;
  std::vector<const char*> metric_prefixes;
};

const std::vector<BenchRequirements>& KnownBenches() {
  static const std::vector<BenchRequirements> known = {
      {"fleet_throughput",
       {"serial_seconds", "fleet_seconds"},
       {"decides_per_sec_shards_"}},
      {"fleet_streaming",
       {"admit_mean_ms", "admit_max_ms"},
       {"decides_per_sec_window_", "admit_mean_ms_window_"}},
      {"serving_remote",
       {"sheets_per_sec", "p50_ms", "p99_ms"},
       {"sheets_per_sec_conns_", "p50_ms_conns_", "p99_ms_conns_"}},
      {"serving_router",
       {"sheets_per_sec", "p50_ms", "p99_ms", "direct_p99_ms",
        "p99_overhead_vs_direct"},
       {"sheets_per_sec_backends_", "p50_ms_backends_", "p99_ms_backends_",
        "p99_overhead_vs_direct_backends_"}},
      {"fleet_solve",
       {"wave_seconds", "sequential_solve_seconds", "eval_sequential_seconds",
        "eval_batched_seconds", "eval_batched_speedup", "share_blocks_built",
        "share_blocks_shared"},
       {"waves_per_sec_threads_"}},
  };
  return known;
}

// Looks up `key` in a params/metrics object; false (with `error` set) when
// it is absent. Shape validation already guaranteed every entry is a
// finite number.
bool RequireNumber(const JsonObject& object, const char* section,
                   const std::string& key, double& out, std::string& error) {
  const JsonValue* value = FindKey(object, key);
  if (value == nullptr) {
    error = std::string("missing required ") + section + " \"" + key + "\"";
    return false;
  }
  out = std::get<double>(value->value);
  return true;
}

// The scaling-curve gate for the fleet_throughput record (see file
// comment). Thresholds here mirror the bench's own bench::Check gates;
// the bench enforces them at measurement time, this validator re-derives
// them from the persisted record so a regressed curve cannot be committed
// or slip through CI even if the bench binary's checks are bypassed.
bool ValidateFleetScalingCurve(const JsonObject& params,
                               const JsonObject& metrics, std::string& error) {
  double hw_threads = 0.0, smoke = 0.0;
  if (!RequireNumber(params, "param", "hw_threads", hw_threads, error) ||
      !RequireNumber(params, "param", "smoke", smoke, error)) {
    return false;
  }
  const std::vector<int> gate_shards = {1, 2, 4, 8, 16};
  std::map<int, double> curve;
  for (int shards : gate_shards) {
    double value = 0.0;
    if (!RequireNumber(metrics, "metric",
                       "decides_per_sec_shards_" + std::to_string(shards),
                       value, error)) {
      return false;
    }
    if (value <= 0.0) {
      error = "decides_per_sec_shards_" + std::to_string(shards) +
              " must be positive";
      return false;
    }
    curve[shards] = value;
  }
  const bool is_smoke = smoke != 0.0;
  const double tolerance =
      is_smoke ? 0.50 : (hw_threads >= 16.0 ? 0.92 : 0.85);
  const double head_factor =
      is_smoke ? 0.50 : (hw_threads >= 16.0 ? 6.0 : 0.90);
  for (size_t i = 0; i + 1 < gate_shards.size(); ++i) {
    const double prev = curve[gate_shards[i]];
    const double next = curve[gate_shards[i + 1]];
    if (next < tolerance * prev) {
      error = "scaling collapse: decides_per_sec_shards_" +
              std::to_string(gate_shards[i + 1]) + " (" +
              std::to_string(next) + ") < " + std::to_string(tolerance) +
              " x decides_per_sec_shards_" + std::to_string(gate_shards[i]) +
              " (" + std::to_string(prev) + ")";
      return false;
    }
  }
  if (curve[16] < head_factor * curve[1]) {
    error = "scaling gate: decides_per_sec_shards_16 (" +
            std::to_string(curve[16]) + ") < " + std::to_string(head_factor) +
            " x decides_per_sec_shards_1 (" + std::to_string(curve[1]) +
            ") [hw_threads=" + std::to_string(hw_threads) +
            ", smoke=" + std::to_string(smoke) + "]";
    return false;
  }
  std::printf(
      "     fleet_throughput scaling gate: %s (16-shard %.2fx 1-shard, "
      "required >= %.2fx)\n",
      is_smoke ? "smoke/collapse-only"
               : (hw_threads >= 16.0 ? "strict 6x" : "non-collapse"),
      curve[16] / curve[1], head_factor);
  return true;
}

// The routing-tier overhead gate for the serving_router record: the
// worst-case routed p99 must stay within 2x of the direct (router-less)
// p99 measured by the same run. Smoke records are too short for stable
// tail quantiles, so they only gate against outright pathology (16x); the
// bench binary applies the identical thresholds at measurement time.
bool ValidateRouterOverhead(const JsonObject& params,
                            const JsonObject& metrics, std::string& error) {
  double overhead = 0.0, smoke = 0.0;
  if (!RequireNumber(metrics, "metric", "p99_overhead_vs_direct", overhead,
                     error) ||
      !RequireNumber(params, "param", "smoke", smoke, error)) {
    return false;
  }
  if (overhead < 0.0) {
    error = "p99_overhead_vs_direct must be non-negative";
    return false;
  }
  const bool is_smoke = smoke != 0.0;
  const double ceiling = is_smoke ? 16.0 : 2.0;
  if (overhead > ceiling) {
    error = "routing overhead gate: p99_overhead_vs_direct (" +
            std::to_string(overhead) + ") > " + std::to_string(ceiling) +
            (is_smoke ? " [smoke]" : " [full]");
    return false;
  }
  std::printf(
      "     serving_router overhead gate: %s (p99 %.2fx direct, "
      "ceiling %.1fx)\n",
      is_smoke ? "smoke/pathology-only" : "strict 2x", overhead, ceiling);
  return true;
}

// The latency-quantile gate for the serving_remote and serving_router
// records (see file comment).
bool ValidateLatencyQuantiles(const JsonObject& metrics, std::string& error) {
  for (const auto& [key, value] : metrics) {
    const size_t at = key.find("p50_ms");
    if (at == std::string::npos) continue;
    std::string p99_key = key;
    p99_key.replace(at, 6, "p99_ms");
    const double p50 = std::get<double>(value.value);
    double p99 = 0.0;
    if (!RequireNumber(metrics, "metric", p99_key, p99, error)) return false;
    if (!(p50 > 0.0) || p50 > p99) {
      error = "latency quantile gate: " + key + " (" + std::to_string(p50) +
              ") must be positive and no larger than " + p99_key + " (" +
              std::to_string(p99) + ")";
      return false;
    }
  }
  return true;
}

// The solve-farm gates for the fleet_solve record (see file comment):
// batched evaluation speedup, re-derived from the record's own smoke param
// exactly as the bench derives it at measurement time, and pmf sharing.
bool ValidateFleetSolve(const JsonObject& params, const JsonObject& metrics,
                        std::string& error) {
  double smoke = 0.0, eval_speedup = 0.0, shared = 0.0;
  if (!RequireNumber(params, "param", "smoke", smoke, error) ||
      !RequireNumber(metrics, "metric", "eval_batched_speedup", eval_speedup,
                     error) ||
      !RequireNumber(metrics, "metric", "share_blocks_shared", shared,
                     error)) {
    return false;
  }
  const bool is_smoke = smoke != 0.0;
  if (shared <= 0.0) {
    error = "share_blocks_shared must be positive: a wave stamped from "
            "repeated rate profiles that shares nothing means the pmf share "
            "cache is broken";
    return false;
  }
  const double eval_floor = is_smoke ? 0.5 : 3.0;
  if (eval_speedup < eval_floor) {
    error = "batched evaluation gate: eval_batched_speedup (" +
            std::to_string(eval_speedup) + ") < " +
            std::to_string(eval_floor) + (is_smoke ? " [smoke]" : " [full]");
    return false;
  }
  std::printf("     fleet_solve gates: eval %.2fx (floor %.1fx, %s)\n",
              eval_speedup, eval_floor,
              is_smoke ? "smoke/pathology-only" : "full");
  return true;
}

bool ValidateRequirements(const std::string& bench, const JsonObject& params,
                          const JsonObject& metrics, std::string& error) {
  for (const BenchRequirements& required : KnownBenches()) {
    if (bench != required.bench) continue;
    for (const char* key : required.metrics) {
      if (FindKey(metrics, key) == nullptr) {
        error = "\"" + bench + "\" record is missing required metric \"" +
                key + "\"";
        return false;
      }
    }
    for (const char* prefix : required.metric_prefixes) {
      bool found = false;
      for (const auto& [key, unused] : metrics) {
        (void)unused;
        if (key.rfind(prefix, 0) == 0) {
          found = true;
          break;
        }
      }
      if (!found) {
        error = "\"" + bench + "\" record has no metric starting with \"" +
                prefix + "\"";
        return false;
      }
    }
  }
  if (bench == "fleet_throughput") {
    if (!ValidateFleetScalingCurve(params, metrics, error)) {
      error = "\"" + bench + "\" " + error;
      return false;
    }
  }
  if (bench == "serving_remote" || bench == "serving_router") {
    if (!ValidateLatencyQuantiles(metrics, error)) {
      error = "\"" + bench + "\" " + error;
      return false;
    }
  }
  if (bench == "serving_router") {
    if (!ValidateRouterOverhead(params, metrics, error)) {
      error = "\"" + bench + "\" " + error;
      return false;
    }
  }
  if (bench == "fleet_solve") {
    if (!ValidateFleetSolve(params, metrics, error)) {
      error = "\"" + bench + "\" " + error;
      return false;
    }
  }
  return true;
}

bool ValidateRecord(const JsonValue& root, std::string& error) {
  if (!root.is_object()) {
    error = "top-level value is not an object";
    return false;
  }
  const JsonObject& record = root.as_object();
  for (const auto& [key, unused] : record) {
    (void)unused;
    if (key != "bench" && key != "params" && key != "metrics" &&
        key != "labels") {
      error = "unexpected key \"" + key + "\"";
      return false;
    }
  }

  const JsonValue* bench = FindKey(record, "bench");
  if (bench == nullptr || !bench->is_string() || bench->as_string().empty()) {
    error = "\"bench\" must be a non-empty string";
    return false;
  }
  for (const char* section : {"params", "metrics"}) {
    const JsonValue* value = FindKey(record, section);
    if (value == nullptr || !value->is_object()) {
      error = std::string("\"") + section + "\" must be an object";
      return false;
    }
    for (const auto& [key, entry] : value->as_object()) {
      if (!entry.is_number()) {
        error = std::string("\"") + section + "\"." + key + " is not a number";
        return false;
      }
    }
  }
  const JsonValue* labels = FindKey(record, "labels");
  if (labels == nullptr || !labels->is_object()) {
    error = "\"labels\" must be an object";
    return false;
  }
  for (const auto& [key, entry] : labels->as_object()) {
    if (!entry.is_string()) {
      error = "\"labels\"." + key + " is not a string";
      return false;
    }
  }
  return ValidateRequirements(bench->as_string(),
                              FindKey(record, "params")->as_object(),
                              FindKey(record, "metrics")->as_object(), error);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: check_bench_json BENCH_a.json [BENCH_b.json ...]\n");
    return 1;
  }
  int bad = 0;
  for (int i = 1; i < argc; ++i) {
    const char* path = argv[i];
    std::ifstream in(path);
    if (!in.good()) {
      std::printf("FAIL %s: cannot open\n", path);
      ++bad;
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();

    JsonValue root;
    std::string error;
    Parser parser(text);
    if (!parser.Parse(root, error) || !ValidateRecord(root, error)) {
      std::printf("FAIL %s: %s\n", path, error.c_str());
      ++bad;
      continue;
    }
    std::printf("OK   %s\n", path);
  }
  if (bad > 0) {
    std::printf("%d of %d record(s) malformed\n", bad, argc - 1);
    return 1;
  }
  std::printf("all %d record(s) well-formed\n", argc - 1);
  return 0;
}
