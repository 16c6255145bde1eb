#include "src/analysis/flow/call_graph.h"

#include <algorithm>
#include <deque>

#include "src/analysis/flow/token_util.h"

namespace xoar {
namespace analysis {
namespace flow {
namespace {

using Tokens = std::vector<Token>;

// Cross-file facts gathered before definitions are scanned.
struct TreeIndex {
  std::set<std::string> classes;                     // defined or forward
  std::map<std::string, std::set<int>> class_files;  // class -> files naming it
  std::map<std::string, std::set<std::string>> bases;     // class -> bases
  std::map<std::string, std::set<std::string>> derived;   // base -> subclasses
  std::map<std::string, std::string> type_alias;     // using A = B / typedef
  std::map<std::string, std::string> ns_alias;       // namespace a = b::c
  std::map<std::string, std::set<std::string>> var_types;  // name -> classes
  std::set<std::string> callables;  // std::function / fn-pointer variables
  std::vector<std::set<int>> include_closure;        // per file, incl. self
};

bool IsWrapper(const std::string& text) {
  return text == "unique_ptr" || text == "shared_ptr" || text == "optional" ||
         text == "StatusOr";
}

bool IsDeclTerminator(const Token& t) {
  return IsPunct(t, ";") || IsPunct(t, "=") || IsPunct(t, ",") ||
         IsPunct(t, ")") || IsPunct(t, "{");
}

// Pass A1: classes, inheritance, and aliases.
void CollectTypes(const std::vector<SourceFile>& files, TreeIndex* index) {
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const Tokens& t = files[fi].lexed.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      const bool is_class_kw =
          IsIdent(t[i], "class") || IsIdent(t[i], "struct");
      if (is_class_kw && !(i > 0 && IsIdent(t[i - 1], "enum")) &&
          i + 1 < t.size() && t[i + 1].kind == TokenKind::kIdentifier) {
        const std::string& name = t[i + 1].text;
        index->classes.insert(name);
        index->class_files[name].insert(static_cast<int>(fi));
        // Base clause: idents between ":" and "{" (access specifiers and
        // "::" chains reduced to the chain's last identifier).
        std::size_t j = i + 2;
        const std::size_t limit = std::min(t.size(), j + 64);
        bool in_bases = false;
        std::string last_ident;
        while (j < limit && !IsPunct(t[j], "{") && !IsPunct(t[j], ";")) {
          if (IsPunct(t[j], ":") ) {
            in_bases = true;
          } else if (in_bases && t[j].kind == TokenKind::kIdentifier &&
                     t[j].text != "public" && t[j].text != "protected" &&
                     t[j].text != "private" && t[j].text != "virtual") {
            last_ident = t[j].text;
          }
          if (in_bases && (IsPunct(t[j], ",") || IsPunct(t[j], "<"))) {
            if (!last_ident.empty()) {
              index->bases[name].insert(last_ident);
              index->derived[last_ident].insert(name);
              last_ident.clear();
            }
            if (IsPunct(t[j], "<")) {
              j = SkipAngles(t, j);
              continue;
            }
          }
          ++j;
        }
        if (in_bases && !last_ident.empty() && j < limit &&
            IsPunct(t[j], "{")) {
          index->bases[name].insert(last_ident);
          index->derived[last_ident].insert(name);
        }
        continue;
      }
      if (IsIdent(t[i], "using") && i + 2 < t.size() &&
          t[i + 1].kind == TokenKind::kIdentifier && IsPunct(t[i + 2], "=")) {
        // using A = <chain>[<...>];  -> A aliases the chain's last ident.
        std::string base;
        for (std::size_t j = i + 3; j < std::min(t.size(), i + 32); ++j) {
          if (t[j].kind == TokenKind::kIdentifier) {
            base = t[j].text;
          } else if (IsPunct(t[j], "<") || IsPunct(t[j], ";")) {
            break;
          }
        }
        if (!base.empty()) {
          index->type_alias[t[i + 1].text] = base;
        }
        continue;
      }
      if (IsIdent(t[i], "typedef")) {
        // typedef <chain> A;
        std::size_t j = i + 1;
        std::string base;
        std::string name;
        while (j < std::min(t.size(), i + 32) && !IsPunct(t[j], ";")) {
          if (t[j].kind == TokenKind::kIdentifier) {
            if (base.empty()) {
              base = t[j].text;
            }
            name = t[j].text;
          }
          ++j;
        }
        if (!base.empty() && !name.empty() && name != base) {
          index->type_alias[name] = base;
        }
        continue;
      }
      if (IsIdent(t[i], "namespace") && i + 2 < t.size() &&
          t[i + 1].kind == TokenKind::kIdentifier && IsPunct(t[i + 2], "=")) {
        std::string chain;
        for (std::size_t j = i + 3; j < std::min(t.size(), i + 32); ++j) {
          if (t[j].kind == TokenKind::kIdentifier) {
            if (!chain.empty()) {
              chain += "::";
            }
            chain += t[j].text;
          } else if (!IsPunct(t[j], "::")) {
            break;
          }
        }
        if (!chain.empty()) {
          index->ns_alias[t[i + 1].text] = chain;
        }
      }
    }
  }
}

std::string ResolveTypeAlias(const TreeIndex& index, const std::string& name) {
  auto it = index.type_alias.find(name);
  return it == index.type_alias.end() ? name : it->second;
}

// Pass A2: declared-variable types and callable-value names.
void CollectVariables(const std::vector<SourceFile>& files, TreeIndex* index) {
  for (const SourceFile& file : files) {
    const Tokens& t = file.lexed.tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != TokenKind::kIdentifier) {
        // Function-pointer declarator: ( * name ) — name is callable.
        if (IsPunct(t[i], "(") && i + 3 < t.size() && IsPunct(t[i + 1], "*") &&
            t[i + 2].kind == TokenKind::kIdentifier &&
            IsPunct(t[i + 3], ")")) {
          index->callables.insert(t[i + 2].text);
        }
        continue;
      }
      const std::string type = ResolveTypeAlias(*index, t[i].text);
      // std::function<...> name — a callable value; calls through it widen.
      if (type == "function" && IsPunct(t[i + 1], "<")) {
        std::size_t j = SkipAngles(t, i + 1);
        while (j < t.size() && (IsPunct(t[j], "*") || IsPunct(t[j], "&"))) {
          ++j;
        }
        if (j + 1 < t.size() && t[j].kind == TokenKind::kIdentifier &&
            IsDeclTerminator(t[j + 1])) {
          index->callables.insert(t[j].text);
        }
        continue;
      }
      // unique_ptr<T> name and friends: record the first tree-declared
      // class inside the angle brackets as the variable's type.
      if (IsWrapper(type) && IsPunct(t[i + 1], "<")) {
        const std::size_t end = SkipAngles(t, i + 1);
        std::string inner;
        for (std::size_t j = i + 2; j + 1 < end; ++j) {
          if (t[j].kind == TokenKind::kIdentifier &&
              index->classes.count(ResolveTypeAlias(*index, t[j].text)) > 0) {
            inner = ResolveTypeAlias(*index, t[j].text);
            break;
          }
        }
        std::size_t j = end;
        while (j < t.size() && (IsPunct(t[j], "*") || IsPunct(t[j], "&"))) {
          ++j;
        }
        if (!inner.empty() && j + 1 < t.size() &&
            t[j].kind == TokenKind::kIdentifier &&
            IsDeclTerminator(t[j + 1])) {
          index->var_types[t[j].text].insert(inner);
        }
        continue;
      }
      // T name / T* name / T& name, where T is a tree-declared class.
      if (index->classes.count(type) > 0) {
        std::size_t j = i + 1;
        if (j < t.size() && IsPunct(t[j], "<")) {
          j = SkipAngles(t, j);
        }
        while (j < t.size() && (IsPunct(t[j], "*") || IsPunct(t[j], "&"))) {
          ++j;
        }
        if (j + 1 < t.size() && t[j].kind == TokenKind::kIdentifier &&
            !IsControlKeyword(t[j].text) && IsDeclTerminator(t[j + 1])) {
          index->var_types[t[j].text].insert(type);
        }
      }
    }
  }
}

void BuildIncludeClosure(const std::vector<SourceFile>& files,
                         TreeIndex* index) {
  std::map<std::string, int> by_path;
  for (std::size_t i = 0; i < files.size(); ++i) {
    by_path[files[i].path] = static_cast<int>(i);
  }
  std::vector<std::vector<int>> direct(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    for (const IncludeDirective& inc : files[i].lexed.includes) {
      if (inc.angled) {
        continue;
      }
      auto it = by_path.find(inc.path);
      if (it != by_path.end()) {
        direct[i].push_back(it->second);
      }
    }
  }
  index->include_closure.resize(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    std::set<int>& closure = index->include_closure[i];
    std::deque<int> queue = {static_cast<int>(i)};
    closure.insert(static_cast<int>(i));
    while (!queue.empty()) {
      const int cur = queue.front();
      queue.pop_front();
      for (int next : direct[cur]) {
        if (closure.insert(next).second) {
          queue.push_back(next);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pass B: function definitions with scope tracking.
// ---------------------------------------------------------------------------

struct Scope {
  enum Kind { kNamespace, kClass } kind;
  std::string name;
  std::size_t close;  // token index of the scope's "}"
};

// Finds the body "{" of a definition whose parameter list closed at
// `close`; returns kNpos when the construct is a declaration/expression.
std::size_t FindBodyBrace(const Tokens& t, std::size_t close) {
  std::size_t j = close + 1;
  int guard = 0;
  while (j < t.size() && guard++ < 96) {
    if (IsPunct(t[j], "{")) {
      return j;
    }
    if (IsPunct(t[j], ";") || IsPunct(t[j], "=") || IsPunct(t[j], ",") ||
        IsPunct(t[j], ")")) {
      return kNpos;
    }
    if (IsPunct(t[j], ":")) {
      // Constructor initializer list: x_(...) and y_{...} groups until the
      // body "{" at top level.
      ++j;
      int init_guard = 0;
      while (j < t.size() && init_guard++ < 4096) {
        if (IsPunct(t[j], "(")) {
          const std::size_t mc = MatchingClose(t, j, "(", ")");
          if (mc == kNpos) {
            return kNpos;
          }
          j = mc + 1;
          continue;
        }
        if (t[j].kind == TokenKind::kIdentifier && j + 1 < t.size() &&
            IsPunct(t[j + 1], "{")) {
          const std::size_t mc = MatchingClose(t, j + 1, "{", "}");
          if (mc == kNpos) {
            return kNpos;
          }
          j = mc + 1;
          continue;
        }
        if (IsPunct(t[j], "{")) {
          return j;
        }
        if (IsPunct(t[j], ";")) {
          return kNpos;
        }
        ++j;
      }
      return kNpos;
    }
    ++j;
  }
  return kNpos;
}

// Leading qualifier chain `A::B<...>::` ending just before token `i`: the
// class and namespace names outermost first, template-argument lists
// skipped, so an out-of-line `Foo<R>::Bar` or a call `Foo<int>::Bar(...)`
// is qualified by Foo. `*start`, when given, receives the index of the
// chain's first token (`i` when there is none).
std::vector<std::string> QualifierChain(const Tokens& t, std::size_t i,
                                        std::size_t* start) {
  std::vector<std::string> chain;
  std::size_t k = i;
  while (k >= 2 && IsPunct(t[k - 1], "::")) {
    std::size_t name = k - 2;
    if (IsPunct(t[name], ">")) {
      // Back up over the template-argument list to the template's name.
      int depth = 0;
      std::size_t j = name;
      for (; j > 0 && name - j < 64; --j) {
        if (IsPunct(t[j], ">")) {
          ++depth;
        } else if ((IsPunct(t[j], "<") && --depth == 0) ||
                   IsPunct(t[j], ";") || IsPunct(t[j], "{") ||
                   IsPunct(t[j], "}")) {
          break;
        }
      }
      if (depth != 0 || j == 0) {
        break;
      }
      name = j - 1;
    }
    if (t[name].kind != TokenKind::kIdentifier) {
      break;
    }
    chain.insert(chain.begin(), t[name].text);
    k = name;
  }
  if (start != nullptr) {
    *start = k;
  }
  return chain;
}

// Nearest preceding identifier that looks like a return type (skipping
// cv/storage keywords and type punctuation).
std::string ReturnHint(const Tokens& t, std::size_t name_start,
                       const TreeIndex& index) {
  static const std::set<std::string>* const kSkip = new std::set<std::string>{
      "static", "inline", "constexpr", "virtual", "explicit", "const",
      "friend", "typename", "unsigned", "signed"};
  for (std::size_t i = name_start; i-- > 0;) {
    if (IsPunct(t[i], ";") || IsPunct(t[i], "{") || IsPunct(t[i], "}")) {
      break;
    }
    if (t[i].kind == TokenKind::kIdentifier && kSkip->count(t[i].text) == 0) {
      const std::string type = ResolveTypeAlias(index, t[i].text);
      return index.classes.count(type) > 0 ? type : std::string();
    }
  }
  return {};
}

void ScanDefinitions(const std::vector<SourceFile>& files,
                     const TreeIndex& index, CallGraph* graph) {
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const SourceFile& file = files[fi];
    const Tokens& t = file.lexed.tokens;
    std::vector<Scope> scopes;
    std::size_t i = 0;
    while (i < t.size()) {
      while (!scopes.empty() && i >= scopes.back().close) {
        scopes.pop_back();
      }
      if (IsIdent(t[i], "namespace")) {
        if (i + 2 < t.size() && t[i + 1].kind == TokenKind::kIdentifier &&
            IsPunct(t[i + 2], "{")) {
          const std::size_t close = MatchingClose(t, i + 2, "{", "}");
          scopes.push_back({Scope::kNamespace, t[i + 1].text,
                            close == kNpos ? t.size() : close});
          i += 3;
          continue;
        }
        if (i + 1 < t.size() && IsPunct(t[i + 1], "{")) {
          const std::size_t close = MatchingClose(t, i + 1, "{", "}");
          scopes.push_back(
              {Scope::kNamespace, "", close == kNpos ? t.size() : close});
          i += 2;
          continue;
        }
        while (i < t.size() && !IsPunct(t[i], ";")) {
          ++i;  // namespace alias; handled in pass A1
        }
        ++i;
        continue;
      }
      if ((IsIdent(t[i], "class") || IsIdent(t[i], "struct")) &&
          !(i > 0 && IsIdent(t[i - 1], "enum")) && i + 1 < t.size() &&
          t[i + 1].kind == TokenKind::kIdentifier) {
        std::size_t j = i + 2;
        const std::size_t limit = std::min(t.size(), j + 64);
        while (j < limit && !IsPunct(t[j], "{") && !IsPunct(t[j], ";")) {
          ++j;
        }
        if (j < limit && IsPunct(t[j], "{")) {
          const std::size_t close = MatchingClose(t, j, "{", "}");
          scopes.push_back({Scope::kClass, t[i + 1].text,
                            close == kNpos ? t.size() : close});
          i = j + 1;
          continue;
        }
        i = j + 1;
        continue;
      }
      if (IsIdent(t[i], "enum")) {
        std::size_t j = i + 1;
        const std::size_t limit = std::min(t.size(), j + 32);
        while (j < limit && !IsPunct(t[j], "{") && !IsPunct(t[j], ";")) {
          ++j;
        }
        if (j < limit && IsPunct(t[j], "{")) {
          const std::size_t close = MatchingClose(t, j, "{", "}");
          i = close == kNpos ? j + 1 : close + 1;
          continue;
        }
        i = j + 1;
        continue;
      }
      if (IsIdent(t[i], "operator")) {
        // Skip operator overloads (declaration or definition) entirely.
        std::size_t j = i + 1;
        const std::size_t limit = std::min(t.size(), j + 96);
        while (j < limit && !IsPunct(t[j], "{") && !IsPunct(t[j], ";")) {
          ++j;
        }
        if (j < limit && IsPunct(t[j], "{")) {
          const std::size_t close = MatchingClose(t, j, "{", "}");
          i = close == kNpos ? j + 1 : close + 1;
        } else {
          i = j + 1;
        }
        continue;
      }
      // Definition candidate: IDENT "(" at namespace/class scope, not a
      // member access, not a destructor, not a control keyword.
      if (t[i].kind == TokenKind::kIdentifier &&
          !IsControlKeyword(t[i].text) && i + 1 < t.size() &&
          IsPunct(t[i + 1], "(") &&
          !(i > 0 && (IsPunct(t[i - 1], ".") || IsPunct(t[i - 1], "->") ||
                      IsPunct(t[i - 1], "~")))) {
        std::size_t k = i;
        const std::vector<std::string> chain = QualifierChain(t, i, &k);
        const std::size_t close = MatchingClose(t, i + 1, "(", ")");
        if (close != kNpos) {
          const std::size_t body = FindBodyBrace(t, close);
          if (body != kNpos) {
            const std::size_t body_close = MatchingClose(t, body, "{", "}");
            FunctionDef def;
            def.name = t[i].text;
            def.file = file.path;
            def.module = file.module;
            def.line = t[i].line;
            def.file_index = static_cast<int>(fi);
            def.body_begin = body;
            def.body_end = body_close == kNpos ? t.size() : body_close + 1;
            for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
              if (it->kind == Scope::kClass && def.qualifier.empty()) {
                def.qualifier = it->name;
              }
            }
            for (const Scope& scope : scopes) {
              if (scope.kind == Scope::kNamespace && !scope.name.empty()) {
                if (!def.ns.empty()) {
                  def.ns += "::";
                }
                def.ns += scope.name;
              }
            }
            for (const std::string& elem : chain) {
              if (index.classes.count(elem) > 0) {
                def.qualifier = elem;  // out-of-line Class::Method
              } else {
                if (!def.ns.empty()) {
                  def.ns += "::";
                }
                def.ns += elem;
              }
            }
            def.return_hint = ReturnHint(t, k, index);
            graph->functions.push_back(std::move(def));
            i = graph->functions.back().body_end;
            continue;
          }
        }
      }
      ++i;
    }
  }
  // Files load in sorted path order and definitions in token order, so the
  // vector is already (file, line)-sorted; the indexes follow from it.
  for (std::size_t idx = 0; idx < graph->functions.size(); ++idx) {
    const FunctionDef& def = graph->functions[idx];
    graph->by_name[def.name].push_back(static_cast<int>(idx));
    if (!def.qualifier.empty()) {
      graph->by_class[def.qualifier].push_back(static_cast<int>(idx));
    }
  }
  graph->classes = index.classes;
}

// ---------------------------------------------------------------------------
// Pass C: call-edge extraction.
// ---------------------------------------------------------------------------

class EdgeExtractor {
 public:
  EdgeExtractor(const std::vector<SourceFile>& files, const TreeIndex& index,
                CallGraph* graph)
      : files_(files), index_(index), graph_(graph) {
    for (std::size_t i = 0; i < graph->functions.size(); ++i) {
      fns_by_file_[graph->functions[i].file_index].push_back(
          static_cast<int>(i));
      fns_by_module_[graph->functions[i].module].push_back(
          static_cast<int>(i));
      if (!graph->functions[i].return_hint.empty()) {
        return_hints_[graph->functions[i].name].insert(
            graph->functions[i].return_hint);
      }
    }
  }

  void Run() {
    graph_->edges.resize(graph_->functions.size());
    for (std::size_t i = 0; i < graph_->functions.size(); ++i) {
      ExtractFor(static_cast<int>(i));
    }
    for (std::size_t i = 0; i < graph_->edges.size(); ++i) {
      std::sort(graph_->edges[i].begin(), graph_->edges[i].end(),
                [](const CallEdge& a, const CallEdge& b) {
                  return std::tie(a.callee, a.line) <
                         std::tie(b.callee, b.line);
                });
      graph_->edge_count += graph_->edges[i].size();
    }
  }

 private:
  // All classes reachable from `seed` along the inheritance relation, both
  // up (inherited methods) and down (virtual overrides).
  std::set<std::string> Hierarchy(const std::string& seed) const {
    std::set<std::string> out = {seed};
    std::deque<std::string> queue = {seed};
    while (!queue.empty()) {
      const std::string cur = queue.front();
      queue.pop_front();
      for (const auto* rel : {&index_.bases, &index_.derived}) {
        auto it = rel->find(cur);
        if (it == rel->end()) {
          continue;
        }
        for (const std::string& next : it->second) {
          if (out.insert(next).second) {
            queue.push_back(next);
          }
        }
      }
    }
    return out;
  }

  void MethodsOf(const std::set<std::string>& types, const std::string& name,
                 std::set<int>* out) const {
    for (const std::string& seed : types) {
      for (const std::string& cls : Hierarchy(seed)) {
        auto it = graph_->by_class.find(cls);
        if (it == graph_->by_class.end()) {
          continue;
        }
        for (int idx : it->second) {
          if (graph_->functions[idx].name == name) {
            out->insert(idx);
          }
        }
      }
    }
  }

  // Fallback for an unresolvable receiver: any method of that name whose
  // class is declared somewhere in the caller's include closure.
  void MethodsVisibleFrom(int caller_file, const std::string& name,
                          std::set<int>* out) const {
    auto it = graph_->by_name.find(name);
    if (it == graph_->by_name.end()) {
      return;
    }
    const std::set<int>& closure = index_.include_closure[caller_file];
    for (int idx : it->second) {
      const FunctionDef& def = graph_->functions[idx];
      if (def.qualifier.empty()) {
        continue;
      }
      auto cf = index_.class_files.find(def.qualifier);
      if (cf == index_.class_files.end()) {
        continue;
      }
      for (int file : cf->second) {
        if (closure.count(file) > 0) {
          out->insert(idx);
          break;
        }
      }
    }
  }

  void FreeFunctions(const FunctionDef& caller, const std::string& name,
                     std::set<int>* out) const {
    auto it = graph_->by_name.find(name);
    if (it == graph_->by_name.end()) {
      return;
    }
    const std::set<int>& closure = index_.include_closure[caller.file_index];
    for (int idx : it->second) {
      const FunctionDef& def = graph_->functions[idx];
      if (!def.qualifier.empty()) {
        continue;
      }
      const bool same_module =
          !caller.module.empty() && def.module == caller.module;
      if (closure.count(def.file_index) > 0 || same_module) {
        out->insert(idx);
      }
    }
  }

  void AddEdges(int caller, const std::set<int>& callees, int line,
                bool widened, std::set<int>* seen) {
    for (int callee : callees) {
      if (callee == caller || seen->count(callee) > 0) {
        continue;
      }
      seen->insert(callee);
      graph_->edges[caller].push_back({callee, line, widened});
    }
  }

  void ExtractFor(int caller_idx) {
    const FunctionDef& caller = graph_->functions[caller_idx];
    const Tokens& t = files_[caller.file_index].lexed.tokens;
    std::set<int> seen;
    bool widened = false;
    for (std::size_t p = caller.body_begin;
         p < std::min(caller.body_end, t.size()); ++p) {
      if (t[p].kind != TokenKind::kIdentifier ||
          IsControlKeyword(t[p].text) || p + 1 >= t.size() ||
          !IsPunct(t[p + 1], "(")) {
        continue;
      }
      const std::string& name = t[p].text;
      const int line = t[p].line;
      if (p >= caller.body_begin + 2 && IsPunct(t[p - 1], "::")) {
        ResolveQualified(caller_idx, t, p, name, line, &seen);
        continue;
      }
      if (p >= caller.body_begin + 2 &&
          (IsPunct(t[p - 1], ".") || IsPunct(t[p - 1], "->"))) {
        ResolveMethod(caller_idx, t, p, name, line, &seen);
        continue;
      }
      // Unqualified: a callable value widens; otherwise try this-calls and
      // visible free functions.
      if (index_.callables.count(name) > 0) {
        std::set<int> all;
        const auto& pool = caller.module.empty()
                               ? fns_by_file_.at(caller.file_index)
                               : fns_by_module_.at(caller.module);
        all.insert(pool.begin(), pool.end());
        AddEdges(caller_idx, all, line, /*widened=*/true, &seen);
        widened = true;
        continue;
      }
      std::set<int> callees;
      if (!caller.qualifier.empty()) {
        MethodsOf({caller.qualifier}, name, &callees);
      }
      FreeFunctions(caller, name, &callees);
      AddEdges(caller_idx, callees, line, /*widened=*/false, &seen);
    }
    if (widened) {
      ++graph_->widened_functions;
    }
  }

  void ResolveQualified(int caller_idx, const Tokens& t, std::size_t p,
                        const std::string& name, int line,
                        std::set<int>* seen) {
    const std::vector<std::string> chain = QualifierChain(t, p, nullptr);
    if (chain.empty()) {
      return;
    }
    // Expand one level of namespace aliasing on the first element, then a
    // type alias on the last.
    auto ns_it = index_.ns_alias.find(chain.front());
    std::string joined;
    if (ns_it != index_.ns_alias.end()) {
      joined = ns_it->second;
      for (std::size_t c = 1; c < chain.size(); ++c) {
        joined += "::" + chain[c];
      }
    } else {
      for (const std::string& elem : chain) {
        if (!joined.empty()) {
          joined += "::";
        }
        joined += elem;
      }
    }
    const std::string last = ResolveTypeAlias(
        index_, joined.substr(joined.rfind(':') == std::string::npos
                                  ? 0
                                  : joined.rfind(':') + 1));
    std::set<int> callees;
    if (index_.classes.count(last) > 0) {
      MethodsOf({last}, name, &callees);
    } else {
      // Namespace-qualified free function: suffix-match the namespace path.
      auto it = graph_->by_name.find(name);
      if (it != graph_->by_name.end()) {
        for (int idx : it->second) {
          const FunctionDef& def = graph_->functions[idx];
          if (!def.qualifier.empty()) {
            continue;
          }
          const std::string& ns = def.ns;
          if (ns == joined ||
              (ns.size() > joined.size() + 2 &&
               ns.compare(ns.size() - joined.size() - 2, 2, "::") == 0 &&
               ns.compare(ns.size() - joined.size(), joined.size(),
                          joined) == 0)) {
            callees.insert(idx);
          }
        }
      }
    }
    AddEdges(caller_idx, callees, line, /*widened=*/false, seen);
  }

  void ResolveMethod(int caller_idx, const Tokens& t, std::size_t p,
                     const std::string& name, int line, std::set<int>* seen) {
    const FunctionDef& caller = graph_->functions[caller_idx];
    const std::size_t q = p - 2;
    std::set<std::string> types;
    bool known = false;
    if (t[q].kind == TokenKind::kIdentifier) {
      if (t[q].text == "this") {
        if (!caller.qualifier.empty()) {
          types.insert(caller.qualifier);
          known = true;
        }
      } else {
        auto it = index_.var_types.find(t[q].text);
        if (it != index_.var_types.end()) {
          types = it->second;
          known = true;
        }
      }
    } else if (IsPunct(t[q], ")")) {
      // Chained call f()->M(...) / f().M(...): use f's return-type hints.
      int depth = 0;
      for (std::size_t j = q + 1; j-- > caller.body_begin;) {
        if (IsPunct(t[j], ")")) {
          ++depth;
        } else if (IsPunct(t[j], "(")) {
          if (--depth == 0) {
            if (j >= 1 && t[j - 1].kind == TokenKind::kIdentifier) {
              auto it = return_hints_.find(t[j - 1].text);
              if (it != return_hints_.end()) {
                types = it->second;
                known = true;
              }
            }
            break;
          }
        }
      }
    }
    std::set<int> callees;
    if (known) {
      MethodsOf(types, name, &callees);
    } else {
      MethodsVisibleFrom(caller.file_index, name, &callees);
    }
    AddEdges(caller_idx, callees, line, /*widened=*/false, seen);
  }

  const std::vector<SourceFile>& files_;
  const TreeIndex& index_;
  CallGraph* graph_;
  std::map<int, std::vector<int>> fns_by_file_;
  std::map<std::string, std::vector<int>> fns_by_module_;
  std::map<std::string, std::set<std::string>> return_hints_;
};

}  // namespace

CallGraph BuildCallGraph(const std::vector<SourceFile>& files) {
  CallGraph graph;
  TreeIndex index;
  CollectTypes(files, &index);
  CollectVariables(files, &index);
  BuildIncludeClosure(files, &index);
  ScanDefinitions(files, index, &graph);
  EdgeExtractor(files, index, &graph).Run();
  return graph;
}

std::string QualifiedName(const FunctionDef& fn) {
  return fn.qualifier.empty() ? fn.name : fn.qualifier + "::" + fn.name;
}

}  // namespace flow
}  // namespace analysis
}  // namespace xoar
