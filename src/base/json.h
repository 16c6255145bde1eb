// JSON for the observability exports: the one writer every exporter
// shares, and the small recursive-descent parser the tests and the
// `validate_obs` CTest tool use to round-trip and schema-check what the
// writer produced (BENCH_*.json reports, Chrome trace_event traces).
//
// Writer: a string escaper, a number formatter (JsonObject::Num), a
// whole-file write, and JsonReport, which lays out the BENCH report
// skeleton — a "context" object, the "benchmarks" array, then any named
// top-level arrays — with one object per line. Output is a pure function
// of the calls made, so identical runs write identical bytes.
//
// Parser scope is deliberately small: parse a complete document into a
// JsonValue tree and offer typed accessors. No streaming, no \uXXXX
// surrogate decoding beyond Latin-1. Not a general-purpose library.
//
// Thread-safety: values are plain immutable-after-parse data; parsing is
// reentrant (no global state).
#ifndef XOAR_SRC_BASE_JSON_H_
#define XOAR_SRC_BASE_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/status.h"

namespace xoar {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool bool_value() const { return bool_; }
  double number() const { return number_; }
  const std::string& string() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  const std::map<std::string, JsonValue>& object() const { return object_; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double n);
  static JsonValue String(std::string s);
  static JsonValue Array(std::vector<JsonValue> items);
  static JsonValue Object(std::map<std::string, JsonValue> members);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

// Parses one complete JSON document; trailing non-whitespace is an error.
StatusOr<JsonValue> ParseJson(std::string_view text);

// Convenience: read `path` and parse its contents.
StatusOr<JsonValue> ParseJsonFile(const std::string& path);

// Appends `s` to `out` as a quoted, escaped JSON string.
void AppendJsonString(std::string* out, std::string_view s);

// Replaces the contents of `path` with `contents`. Fails when the file
// cannot be opened or any byte does not reach it, including at close: a
// small write only meets a full disk when stdio flushes its buffer.
Status WriteStringToFile(const std::string& path, std::string_view contents);

// One JSON object on one line, members in the order they are added.
class JsonObject {
 public:
  JsonObject& Str(std::string_view key, std::string_view value);
  // Integral values print without a fraction, so counters stay integers;
  // others print with %.17g, or with exactly `decimals` fraction digits
  // when `decimals` is not negative.
  JsonObject& Num(std::string_view key, double value, int decimals = -1);
  JsonObject& Bool(std::string_view key, bool value);
  // `json` is inserted as is: an already-rendered value.
  JsonObject& Raw(std::string_view key, std::string_view json);
  std::string ToString() const { return text_ + "}"; }

 private:
  void Key(std::string_view key);
  std::string text_ = "{";
};

// The BENCH_*.json report shape:
//
//   {
//     "context": {
//       "executable": <executable>,
//       "sim_time_ns": <sim_time_ns>
//     },
//     "benchmarks": [
//       {"name": ..., "run_type": ..., "value": ...},
//       ...
//     ],
//     "<array>": [
//       {...},
//       ...
//     ]
//   }
//
// The named arrays follow "benchmarks" in the order the constructor lists
// them, and are written even when empty; rows keep the order they were
// added in.
class JsonReport {
 public:
  explicit JsonReport(std::string_view executable,
                      std::vector<std::string> arrays = {},
                      std::uint64_t sim_time_ns = 0);

  // Appends {"name": name, "run_type": run_type, "value": value} to
  // "benchmarks".
  void AddMetric(std::string_view name, std::string_view run_type,
                 double value);
  // Appends `row` to the top-level array `array` ("benchmarks" included);
  // an array the constructor did not list goes after the listed ones.
  void AddRow(std::string_view array, const JsonObject& row);

  std::string ToString() const;

 private:
  std::string executable_;
  std::uint64_t sim_time_ns_;
  std::vector<std::pair<std::string, std::vector<std::string>>> arrays_;
};

}  // namespace xoar

#endif  // XOAR_SRC_BASE_JSON_H_
