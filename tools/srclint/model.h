// srclint structural model — function extents, loops, lambdas, calls.
//
// Built from the token stream by a bracket-matching pass. The model is
// deliberately lightweight: every entity
// is a token range plus the few attributes the checks consume. Heuristics
// and their known limits are documented in DESIGN.md §14.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "srclint/lex.h"

namespace gpd::srclint {

// Half-open token index range [begin, end).
struct TokRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  bool contains(std::size_t i) const { return i >= begin && i < end; }
};

// One function (or method) definition: `name` is the last identifier of the
// declarator chain; `body` covers the tokens between its braces.
struct FnDef {
  std::string name;
  int line = 1;
  TokRange body;  // excludes the braces themselves
};

// One for/while/do loop; `body` covers the loop's statement (block body
// without the braces, or the single statement).
struct Loop {
  int line = 1;
  TokRange body;
};

// One lambda expression.
struct Lambda {
  int line = 1;
  bool capturesAllByRef = false;          // [&] or [&, ...]
  std::set<std::string> refCaptures;      // explicit &name captures
  std::set<std::string> valueCaptures;    // explicit name / name=... captures
  std::vector<std::string> params;        // parameter names, declaration order
  TokRange body;                          // without the braces
  TokRange full;                          // '[' .. closing '}'
};

// One call site: identifier followed by '('. `receiver` is the identifier
// chain before a '.'/'->' (empty for free calls), e.g. "pool" in
// pool.run(...) or pool->run(...).
struct Call {
  std::string name;
  std::string receiver;
  int line = 1;
  std::size_t tok = 0;       // index of the name token
  std::size_t argsBegin = 0;  // token index just past '('
  std::size_t argsEnd = 0;    // index of the matching ')'
};

struct FileModel {
  std::string path;      // as given on the command line
  std::string relPath;   // path with "./" stripped, for dir matching
  std::vector<Tok> toks;
  std::vector<AllowComment> allows;
  std::vector<int> malformedControlLines;
  std::vector<FnDef> functions;
  std::vector<Loop> loops;
  std::vector<Lambda> lambdas;
  std::vector<Call> calls;
  // For every '{' / '(' / '[' token index, the index of its match.
  std::map<std::size_t, std::size_t> match;

  // Innermost function whose body contains token i; nullptr when none.
  const FnDef* enclosingFunction(std::size_t i) const;
  // Calls whose name token lies inside `range`.
  std::vector<const Call*> callsIn(const TokRange& range) const;
};

// Runs the structural pass over a lexed file.
FileModel buildModel(std::string path, LexResult lexed);

}  // namespace gpd::srclint
