// srclint — domain-invariant analyzer for the gpd codebase.
//
// Enforces five repo-specific contracts that generic linters cannot see
// (DESIGN.md §14): budget charging in enumeration loops, the amortized-clock
// discipline, GPD_TRACE_SPAN RAII binding, racy by-reference captures in
// par::Pool lambdas, and checkpoint write/read key symmetry.
//
//   srclint [options] <path>...          scan files or directories
//   srclint --compile-commands FILE      scan the files of a compilation DB
//
// Options:
//   --checks a,b       run only the named checks (default: all)
//   --list-checks      print registered check names and exit
//   -f text|json       output format (default text)
//   --stats            print per-check finding/allowed counts to stderr
//   --help             usage
//
// Suppression: `// srclint: allow(check-name)` silences findings of that
// check on the comment's own line and the next line. Allowed findings are
// counted in --stats but do not affect the exit code. An unknown check name
// inside an allow() is itself a diagnostic.
//
// Exit codes follow the repo taxonomy: 0 clean, 1 findings, 2 bad
// input/usage, 3 internal error.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/diagnostic.h"
#include "srclint/checks.h"
#include "srclint/lex.h"
#include "srclint/model.h"

namespace {

namespace fs = std::filesystem;
using gpd::analyze::Diagnostic;
using gpd::analyze::Severity;
using gpd::srclint::AllowComment;
using gpd::srclint::FileModel;
using gpd::srclint::Finding;

constexpr int kExitClean = 0;
constexpr int kExitFindings = 1;
constexpr int kExitUsage = 2;
constexpr int kExitInternal = 3;

struct Options {
  std::vector<std::string> paths;
  std::set<std::string> checks;  // empty = all
  std::string format = "text";
  std::string compileCommands;
  bool stats = false;
  bool listChecks = false;
};

void usage(std::ostream& os) {
  os << "usage: srclint [--checks a,b] [--list-checks] [-f text|json]\n"
        "               [--stats] [--compile-commands FILE] <path>...\n";
}

// Accepts "--opt value" and "--opt=value"; returns false on missing value.
bool takeValue(const std::vector<std::string>& args, std::size_t& i,
               const std::string& name, std::string* out) {
  const std::string& a = args[i];
  if (a.size() > name.size() && a.compare(0, name.size() + 1, name + "=") == 0) {
    *out = a.substr(name.size() + 1);
    return true;
  }
  if (i + 1 >= args.size()) return false;
  *out = args[++i];
  return true;
}

bool parseArgs(const std::vector<std::string>& args, Options* opt,
               std::string* error) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto is = [&](const char* name) {
      return a == name || a.compare(0, std::string(name).size() + 1,
                                    std::string(name) + "=") == 0;
    };
    if (a == "--help" || a == "-h") {
      usage(std::cout);
      std::exit(kExitClean);
    }
    if (a == "--list-checks") {
      opt->listChecks = true;
      continue;
    }
    if (a == "--stats") {
      opt->stats = true;
      continue;
    }
    if (is("--checks")) {
      std::string v;
      if (!takeValue(args, i, "--checks", &v)) {
        *error = "--checks needs a value";
        return false;
      }
      std::stringstream ss(v);
      std::string name;
      while (std::getline(ss, name, ',')) {
        if (name.empty()) continue;
        if (!gpd::srclint::isCheckName(name)) {
          *error = "unknown check '" + name + "' (see --list-checks)";
          return false;
        }
        opt->checks.insert(name);
      }
      continue;
    }
    if (is("-f") || is("--format")) {
      std::string v;
      const std::string name = is("-f") ? "-f" : "--format";
      if (!takeValue(args, i, name, &v)) {
        *error = name + " needs a value";
        return false;
      }
      if (v != "text" && v != "json") {
        *error = "unknown format '" + v + "' (text|json)";
        return false;
      }
      opt->format = v;
      continue;
    }
    if (is("--compile-commands")) {
      if (!takeValue(args, i, "--compile-commands", &opt->compileCommands)) {
        *error = "--compile-commands needs a value";
        return false;
      }
      continue;
    }
    if (!a.empty() && a[0] == '-') {
      *error = "unknown option '" + a + "'";
      return false;
    }
    opt->paths.push_back(a);
  }
  return true;
}

bool isSourceFile(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".h" ||
         ext == ".hpp";
}

// Expands the path arguments into a sorted, de-duplicated file list.
bool gatherFiles(const Options& opt, std::vector<std::string>* out,
                 std::string* error) {
  std::set<std::string> files;
  for (const std::string& path : opt.paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (fs::recursive_directory_iterator it(path, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec) && isSourceFile(it->path())) {
          files.insert(it->path().generic_string());
        }
      }
      continue;
    }
    if (fs::is_regular_file(path, ec)) {
      files.insert(fs::path(path).generic_string());
      continue;
    }
    *error = "no such file or directory: '" + path + "'";
    return false;
  }
  if (!opt.compileCommands.empty()) {
    // Minimal extraction of "file" entries; the DB is machine-written JSON,
    // so scanning for the key is sufficient and avoids a JSON dependency.
    std::ifstream in(opt.compileCommands);
    if (!in) {
      *error = "cannot read compile database '" + opt.compileCommands + "'";
      return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string db = buf.str();
    const std::string key = "\"file\"";
    for (std::size_t pos = db.find(key); pos != std::string::npos;
         pos = db.find(key, pos + key.size())) {
      const std::size_t colon = db.find(':', pos + key.size());
      if (colon == std::string::npos) break;
      const std::size_t q1 = db.find('"', colon);
      if (q1 == std::string::npos) break;
      const std::size_t q2 = db.find('"', q1 + 1);
      if (q2 == std::string::npos) break;
      const std::string file = db.substr(q1 + 1, q2 - q1 - 1);
      if (isSourceFile(file)) files.insert(file);
      pos = q2;
    }
  }
  out->assign(files.begin(), files.end());
  return true;
}

std::string stripDotSlash(std::string p) {
  while (p.compare(0, 2, "./") == 0) p = p.substr(2);
  return p;
}

// Lexes one file and builds its structural model.
bool loadFile(const std::string& path, FileModel* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot read '" + path + "'";
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  *out = gpd::srclint::buildModel(path, gpd::srclint::lex(buf.str()));
  out->relPath = stripDotSlash(out->relPath);
  return true;
}

// A finding on line L is suppressed by an allow() for its check on line L
// or L-1 (the comment covers its own line and the next).
bool isAllowed(const FileModel& file, const Finding& f) {
  for (const AllowComment& allow : file.allows) {
    if (allow.line != f.diag.line && allow.line + 1 != f.diag.line) continue;
    for (const std::string& check : allow.checks) {
      if (check == f.diag.code) return true;
    }
  }
  return false;
}

// Diagnostics about the suppression comments themselves: malformed control
// lines and unknown check names. Never suppressible.
std::vector<Finding> allowDiagnostics(const FileModel& file) {
  std::vector<Finding> out;
  for (int line : file.malformedControlLines) {
    Finding f;
    f.file = file.relPath;
    f.diag.severity = Severity::Error;
    f.diag.code = "srclint-allow";
    f.diag.line = line;
    f.diag.message =
        "malformed srclint control comment; expected "
        "'srclint: allow(check-name[, check-name])'";
    out.push_back(std::move(f));
  }
  for (const AllowComment& allow : file.allows) {
    for (const std::string& check : allow.checks) {
      if (gpd::srclint::isCheckName(check)) continue;
      Finding f;
      f.file = file.relPath;
      f.diag.severity = Severity::Error;
      f.diag.code = "srclint-allow";
      f.diag.line = allow.line;
      f.diag.message = "allow() names unknown check '" + check +
                       "' (see --list-checks)";
      out.push_back(std::move(f));
    }
  }
  return out;
}

void renderJsonFindings(std::ostream& os, const std::vector<Finding>& all) {
  os << "[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Finding& f = all[i];
    if (i != 0) os << ",";
    os << "\n  {\"file\": \"" << gpd::analyze::jsonEscape(f.file)
       << "\", \"severity\": \"" << gpd::analyze::toString(f.diag.severity)
       << "\", \"code\": \"" << gpd::analyze::jsonEscape(f.diag.code)
       << "\", \"line\": " << f.diag.line << ", \"message\": \""
       << gpd::analyze::jsonEscape(f.diag.message) << "\"}";
  }
  os << (all.empty() ? "]" : "\n]") << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  Options opt;
  std::string error;
  if (!parseArgs(args, &opt, &error)) {
    std::cerr << "srclint: " << error << "\n";
    usage(std::cerr);
    return kExitUsage;
  }
  if (opt.listChecks) {
    for (const std::string& name : gpd::srclint::checkNames()) {
      std::cout << name << "\n";
    }
    return kExitClean;
  }
  if (opt.paths.empty() && opt.compileCommands.empty()) {
    std::cerr << "srclint: no input paths\n";
    usage(std::cerr);
    return kExitUsage;
  }

  std::vector<std::string> files;
  if (!gatherFiles(opt, &files, &error)) {
    std::cerr << "srclint: " << error << "\n";
    return kExitUsage;
  }

  try {
    std::vector<FileModel> models;
    models.reserve(files.size());
    for (const std::string& path : files) {
      FileModel model;
      if (!loadFile(path, &model, &error)) {
        std::cerr << "srclint: " << error << "\n";
        return kExitUsage;
      }
      models.push_back(std::move(model));
    }

    const gpd::srclint::Context ctx = gpd::srclint::buildContext(models);

    std::vector<Finding> emitted;   // unsuppressed — drive the exit code
    std::map<std::string, int> found;
    std::map<std::string, int> allowed;
    for (const FileModel& model : models) {
      for (const std::string& check : gpd::srclint::checkNames()) {
        if (!opt.checks.empty() && opt.checks.count(check) == 0) continue;
        for (Finding& f : gpd::srclint::runCheck(check, model, ctx)) {
          ++found[check];
          if (isAllowed(model, f)) {
            ++allowed[check];
            continue;
          }
          emitted.push_back(std::move(f));
        }
      }
      for (Finding& f : allowDiagnostics(model)) {
        ++found[f.diag.code];
        emitted.push_back(std::move(f));
      }
    }

    if (opt.format == "json") {
      renderJsonFindings(std::cout, emitted);
    } else {
      // Group by file, preserving scan order, and reuse the PR 2 renderer.
      std::vector<std::string> order;
      std::map<std::string, std::vector<Diagnostic>> byFile;
      for (const Finding& f : emitted) {
        if (byFile.find(f.file) == byFile.end()) order.push_back(f.file);
        byFile[f.file].push_back(f.diag);
      }
      for (const std::string& file : order) {
        gpd::analyze::renderText(std::cout, file, byFile[file]);
      }
    }

    if (opt.stats) {
      std::cerr << "== srclint stats ==\n";
      for (const std::string& check : gpd::srclint::checkNames()) {
        std::cerr << check << ": " << found[check] << " finding(s), "
                  << allowed[check] << " allowed\n";
      }
      if (found.count("srclint-allow") != 0) {
        std::cerr << "srclint-allow: " << found["srclint-allow"]
                  << " finding(s), 0 allowed\n";
      }
      std::cerr << "files scanned: " << models.size() << "\n";
    }

    return emitted.empty() ? kExitClean : kExitFindings;
  } catch (const std::exception& e) {
    std::cerr << "srclint: internal error: " << e.what() << "\n";
    return kExitInternal;
  }
}
