#include "src/base/strings.h"

#include <cstdarg>
#include <cstdio>

namespace xoar {

void PathSegments::Iterator::Advance() {
  const std::size_t start = rest_.find_first_not_of('/');
  if (start == std::string_view::npos) {
    rest_ = segment_ = std::string_view();
    return;
  }
  rest_.remove_prefix(start);
  segment_ = rest_.substr(0, rest_.find('/'));
  rest_.remove_prefix(segment_.size());
}

std::string NormalizePath(std::string_view path) {
  std::string out;
  out.reserve(path.size() + 1);
  for (std::string_view segment : PathSegments(path)) {
    out += '/';
    out += segment;
  }
  if (out.empty()) {
    out.assign(1, '/');
  }
  return out;
}

bool IsCanonicalPath(std::string_view path) {
  if (path.empty() || path.front() != '/') {
    return false;
  }
  return path.size() == 1 ||
         (path.back() != '/' && path.find("//") == std::string_view::npos);
}

bool PathHasPrefix(std::string_view path, std::string_view prefix) {
  // Normalize away trailing separators on the prefix ("/a/" == "/a").
  while (!prefix.empty() && prefix.back() == '/') {
    prefix.remove_suffix(1);
  }
  if (prefix.empty()) {
    return true;
  }
  if (path.substr(0, prefix.size()) != prefix) {
    return false;
  }
  return path.size() == prefix.size() || path[prefix.size()] == '/';
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace xoar
