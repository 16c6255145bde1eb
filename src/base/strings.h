// Small string utilities shared across modules (path handling for XenStore,
// printf-style formatting for reports).
#ifndef XOAR_SRC_BASE_STRINGS_H_
#define XOAR_SRC_BASE_STRINGS_H_

#include <string>
#include <string_view>

namespace xoar {

// The non-empty '/'-separated segments of a path, as views into it, without
// allocating: `for (std::string_view s : PathSegments("/a//b/"))` visits "a"
// then "b". The path must outlive the iteration.
class PathSegments {
 public:
  class Iterator {
   public:
    std::string_view operator*() const { return segment_; }
    Iterator& operator++() {
      Advance();
      return *this;
    }
    bool operator==(const Iterator& other) const {
      return segment_.data() == other.segment_.data();
    }

   private:
    friend class PathSegments;
    explicit Iterator(std::string_view rest) : rest_(rest) { Advance(); }
    void Advance();

    std::string_view rest_;     // the path after `segment_`
    std::string_view segment_;  // default-constructed at the end
  };

  explicit PathSegments(std::string_view path) : path_(path) {}
  Iterator begin() const { return Iterator(path_); }
  Iterator end() const { return Iterator(std::string_view()); }

 private:
  std::string_view path_;
};

// The canonical form of `path`: its segments joined with a leading '/'
// ("a//b/" -> "/a/b"; no segments -> "/").
std::string NormalizePath(std::string_view path);

// True if `path` is already canonical: NormalizePath(path) == path.
bool IsCanonicalPath(std::string_view path);

// True if `path` equals `prefix` or is a descendant of it ("/a/b" has prefix
// "/a" but not "/ab").
bool PathHasPrefix(std::string_view path, std::string_view prefix);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace xoar

#endif  // XOAR_SRC_BASE_STRINGS_H_
