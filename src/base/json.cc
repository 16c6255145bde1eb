#include "src/base/json.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "src/base/strings.h"

namespace xoar {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type_ != Type::kObject) {
    return nullptr;
  }
  auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double n) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::String(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array(std::vector<JsonValue> items) {
  JsonValue v;
  v.type_ = Type::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::Object(std::map<std::string, JsonValue> members) {
  JsonValue v;
  v.type_ = Type::kObject;
  v.object_ = std::move(members);
  return v;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    XOAR_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after document");
    }
    return value;
  }

 private:
  Status Error(std::string_view message) const {
    return InvalidArgumentError(
        StrFormat("JSON parse error at offset %zu: %.*s", pos_,
                  static_cast<int>(message.size()), message.data()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  StatusOr<JsonValue> ParseValue() {
    if (++depth_ > kMaxDepth) {
      return Error("nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    StatusOr<JsonValue> result = [&]() -> StatusOr<JsonValue> {
      switch (text_[pos_]) {
        case '{':
          return ParseObject();
        case '[':
          return ParseArray();
        case '"':
          return ParseString();
        case 't':
          if (ConsumeLiteral("true")) {
            return JsonValue::Bool(true);
          }
          return Error("bad literal");
        case 'f':
          if (ConsumeLiteral("false")) {
            return JsonValue::Bool(false);
          }
          return Error("bad literal");
        case 'n':
          if (ConsumeLiteral("null")) {
            return JsonValue::Null();
          }
          return Error("bad literal");
        default:
          return ParseNumber();
      }
    }();
    --depth_;
    return result;
  }

  StatusOr<JsonValue> ParseObject() {
    ++pos_;  // '{'
    std::map<std::string, JsonValue> members;
    SkipWhitespace();
    if (Consume('}')) {
      return JsonValue::Object(std::move(members));
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      XOAR_ASSIGN_OR_RETURN(JsonValue key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) {
        return Error("expected ':'");
      }
      XOAR_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      members.insert_or_assign(key.string(), std::move(value));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return JsonValue::Object(std::move(members));
      }
      return Error("expected ',' or '}'");
    }
  }

  StatusOr<JsonValue> ParseArray() {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (Consume(']')) {
      return JsonValue::Array(std::move(items));
    }
    while (true) {
      XOAR_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      items.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return JsonValue::Array(std::move(items));
      }
      return Error("expected ',' or ']'");
    }
  }

  StatusOr<JsonValue> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        return JsonValue::String(std::move(out));
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Error("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape");
            }
          }
          // Latin-1 subset only; enough for the exporters' escaped output.
          if (code > 0xff) {
            return Error("\\u escape above Latin-1 unsupported");
          }
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          return Error("bad escape character");
      }
    }
    return Error("unterminated string");
  }

  StatusOr<JsonValue> ParseNumber() {
    const std::size_t start = pos_;
    (void)Consume('-');
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Error("expected a value");
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return Error("malformed number");
    }
    return JsonValue::Number(value);
  }

  static constexpr int kMaxDepth = 64;
  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

StatusOr<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

StatusOr<JsonValue> ParseJsonFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return InvalidArgumentError(StrFormat("cannot open %s", path.c_str()));
  }
  std::string contents;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(f);
  return ParseJson(contents);
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out->append(StrFormat(
              "\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c))));
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

namespace {

std::string JsonNumber(double value, int decimals) {
  if (decimals >= 0) {
    return StrFormat("%.*f", decimals, value);
  }
  // Range-check before the int64 cast: casting a double outside int64
  // range is undefined behaviour.
  if (value < 1e15 && value > -1e15 &&
      value == static_cast<double>(static_cast<std::int64_t>(value))) {
    return StrFormat("%lld", static_cast<long long>(value));
  }
  return StrFormat("%.17g", value);
}

}  // namespace

Status WriteStringToFile(const std::string& path, std::string_view contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return InternalError(StrFormat("cannot open %s for writing: %s",
                                   path.c_str(), std::strerror(errno)));
  }
  const std::size_t written =
      std::fwrite(contents.data(), 1, contents.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != contents.size() || !closed) {
    return InternalError(StrFormat("write to %s failed: %s", path.c_str(),
                                   std::strerror(errno)));
  }
  return Status::Ok();
}

void JsonObject::Key(std::string_view key) {
  if (text_.size() > 1) {
    text_.append(", ");
  }
  AppendJsonString(&text_, key);
  text_.append(": ");
}

JsonObject& JsonObject::Str(std::string_view key, std::string_view value) {
  Key(key);
  AppendJsonString(&text_, value);
  return *this;
}

JsonObject& JsonObject::Num(std::string_view key, double value,
                            int decimals) {
  Key(key);
  text_.append(JsonNumber(value, decimals));
  return *this;
}

JsonObject& JsonObject::Bool(std::string_view key, bool value) {
  Key(key);
  text_.append(value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::Raw(std::string_view key, std::string_view json) {
  Key(key);
  text_.append(json);
  return *this;
}

JsonReport::JsonReport(std::string_view executable,
                       std::vector<std::string> arrays,
                       std::uint64_t sim_time_ns)
    : executable_(executable), sim_time_ns_(sim_time_ns) {
  arrays_.emplace_back("benchmarks", std::vector<std::string>{});
  for (std::string& name : arrays) {
    arrays_.emplace_back(std::move(name), std::vector<std::string>{});
  }
}

void JsonReport::AddMetric(std::string_view name, std::string_view run_type,
                           double value) {
  AddRow("benchmarks",
         JsonObject().Str("name", name).Str("run_type", run_type).Num(
             "value", value));
}

void JsonReport::AddRow(std::string_view array, const JsonObject& row) {
  auto it = std::find_if(arrays_.begin(), arrays_.end(),
                         [&](const auto& a) { return a.first == array; });
  if (it == arrays_.end()) {
    it = arrays_.emplace(arrays_.end(), std::string(array),
                         std::vector<std::string>{});
  }
  it->second.push_back(row.ToString());
}

std::string JsonReport::ToString() const {
  std::string out = "{\n  \"context\": {\n    \"executable\": ";
  AppendJsonString(&out, executable_);
  out.append(StrFormat(",\n    \"sim_time_ns\": %llu\n  }",
                       static_cast<unsigned long long>(sim_time_ns_)));
  for (const auto& [name, rows] : arrays_) {
    out.append(",\n  ");
    AppendJsonString(&out, name);
    out.append(": [");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out.append(i == 0 ? "\n    " : ",\n    ");
      out.append(rows[i]);
    }
    out.append("\n  ]");
  }
  out.append("\n}\n");
  return out;
}

}  // namespace xoar
