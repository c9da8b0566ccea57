// ablint — repo-specific protocol-discipline checker for the abcast tree.
//
// Generic tools (clang-tidy, TSan) catch UB and races; ablint enforces the
// conventions that keep the hand-rolled wire protocol honest, the ones only
// this repository can define:
//
//   wire-tag-home       Every kAb*/kCs*/kGroup* wire-tag enumerator is
//                       DEFINED exactly once, and only inside a `*wire.hpp`
//                       or `keys.hpp` home; kGroup* tags are further pinned
//                       to the group layer's own `group_wire.hpp`. A second
//                       definition site is how the duplicated kAbGossipDigest
//                       encoder bug (PR 3 review) happened; uses are free,
//                       layouts are not.
//
//   roundtrip-registered  Every payload struct with a `void encode(BufWriter`
//                       member in src/core, src/consensus, src/group or
//                       src/multicast has a registered round-trip test: a
//                       `ablint:roundtrip <Name>` marker somewhere under
//                       tests/ (see wire_roundtrip_test.cpp).
//
//   raw-wire-access     No `memcpy(` / `reinterpret_cast<` in src/ outside
//                       common/codec.{hpp,cpp} — every wire buffer goes
//                       through the bounds-checked BufWriter/BufReader.
//                       Casting to `sockaddr*` is exempt (kernel socket API,
//                       not a wire buffer).
//
//   metrics-indexed     Every AbMetrics / ConsensusMetrics / GroupMetrics /
//                       NetMetrics counter field is referenced (as
//                       ab_<field> / cons_<field> / ab_group_<field> /
//                       net_<field>) in the
//                       EXPERIMENTS.md metrics index, so no counter can be
//                       added without documenting which experiment reads it.
//
//   scenario-roundtrip  Every clause kind registered in the scenario DSL's
//                       kScenarioClauseKinds array has a serialize/parse
//                       round-trip test: an `ablint:scenario-roundtrip
//                       <kind>` marker under tests/ (see scenario_test.cpp).
//                       A marker naming an unregistered kind is stale and
//                       flagged too. Guarantees "every failure reproduces
//                       from one line" survives new clause kinds.
//
//   fuzz-coverage       Every round-trip-registered message (each
//                       `ablint:roundtrip <Name>` marker under tests/) also
//                       appears as an `ablint:fuzz <Name>` marker under
//                       fuzz/ — i.e. some fuzz harness dispatches its
//                       decoder (DESIGN.md §15). A fuzz marker naming a
//                       message that is no longer roundtrip-registered is
//                       stale and flagged too, so harness dispatch tables
//                       cannot silently rot as the wire set evolves.
//
//   config-field-set    Every field of every `struct *Config` / `struct
//                       *Options` under src/ is assigned somewhere outside
//                       its defining header (`.f =`, `->f =`, a designated
//                       `.f =`, or `.f.` reaching into it) in src/, tests/,
//                       bench/, examples/ or e2ebench/. A knob no caller
//                       varies is a constant and belongs next to its use.
//
//   options-benched     Every field of `struct Options` (core::Options) is
//                       assigned, by the patterns of config-field-set, in
//                       some file under bench/. A protocol knob earns its
//                       place with a bench row where it wins; one that only
//                       tests or examples set has no such row.
//
// Usage:
//   ablint [--root <repo-root>]   # scan; file:line diagnostics; exit 1 on
//                                 # any violation
//   ablint --selftest             # run every rule against seeded in-memory
//                                 # violations; exit 1 unless each rule both
//                                 # fires on its seed and stays quiet on a
//                                 # clean fixture
//
// Plain C++20 + std::filesystem; no third-party dependencies, so it builds
// everywhere the tree builds and runs in CI as its own job.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct SourceFile {
  std::string path;                 // repo-relative, for diagnostics
  std::vector<std::string> lines;   // raw text, 0-indexed
};

struct Diag {
  std::string path;
  std::size_t line = 0;  // 1-based
  std::string rule;
  std::string msg;
};

// Strips a trailing // comment (good enough for this tree: no protocol code
// hides wire tags inside string literals or /* */ blocks).
std::string strip_line_comment(const std::string& line) {
  const auto pos = line.find("//");
  return pos == std::string::npos ? line : line.substr(0, pos);
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return {};
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::string basename_of(const std::string& path) {
  const auto pos = path.find_last_of('/');
  return pos == std::string::npos ? path : path.substr(pos + 1);
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_wire_home(const std::string& path) {
  const std::string base = basename_of(path);
  return ends_with(base, "wire.hpp") || base == "keys.hpp";
}

// ---------------------------------------------------------------- rule 1

// A *definition* is `kAb…` / `kCs…` / `kGroup…` followed by a single `=`
// (enumerator or constant initializer). `==`, `!=`, `<=`, `>=` comparisons
// and bare uses never match.
std::vector<Diag> check_wire_tag_homes(const std::vector<SourceFile>& src) {
  static const std::regex def_re(
      R"((\bk(?:Ab|Cs|Group)[A-Za-z0-9_]*)\s*=(?![=]))");
  std::vector<Diag> out;
  std::map<std::string, std::vector<std::pair<std::string, std::size_t>>> defs;
  for (const auto& f : src) {
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
      const std::string code = strip_line_comment(f.lines[i]);
      auto begin = std::sregex_iterator(code.begin(), code.end(), def_re);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        const std::string tag = (*it)[1].str();
        defs[tag].emplace_back(f.path, i + 1);
        if (tag.rfind("kGroup", 0) == 0) {
          // Group-layer tags get a single pinned home, not just any wire
          // home: the envelope layout must stay next to its demux.
          if (basename_of(f.path) != "group_wire.hpp") {
            out.push_back({f.path, i + 1, "wire-tag-home",
                           "wire tag '" + tag +
                               "' defined outside its group_wire.hpp home"});
          }
        } else if (!is_wire_home(f.path)) {
          out.push_back({f.path, i + 1, "wire-tag-home",
                         "wire tag '" + tag +
                             "' defined outside a *wire.hpp/keys.hpp home"});
        }
      }
    }
  }
  for (const auto& [tag, sites] : defs) {
    if (sites.size() <= 1) continue;
    for (const auto& [path, line] : sites) {
      out.push_back({path, line, "wire-tag-home",
                     "wire tag '" + tag + "' defined " +
                         std::to_string(sites.size()) +
                         " times (layouts must have one definition site)"});
    }
  }
  return out;
}

// ---------------------------------------------------------------- rule 2

bool in_roundtrip_scope(const std::string& path) {
  return path.rfind("src/core/", 0) == 0 ||
         path.rfind("src/consensus/", 0) == 0 ||
         path.rfind("src/group/", 0) == 0 ||
         path.rfind("src/multicast/", 0) == 0;
}

std::vector<Diag> check_roundtrip_registered(
    const std::vector<SourceFile>& src, const std::vector<SourceFile>& tests) {
  static const std::regex type_re(R"(\b(?:struct|class)\s+([A-Za-z_]\w*))");
  static const std::regex marker_re(R"(ablint:roundtrip\s+([A-Za-z_]\w*))");

  std::set<std::string> registered;
  for (const auto& f : tests) {
    for (const auto& line : f.lines) {
      std::smatch m;
      std::string rest = line;
      while (std::regex_search(rest, m, marker_re)) {
        registered.insert(m[1].str());
        rest = m.suffix();
      }
    }
  }

  std::vector<Diag> out;
  for (const auto& f : src) {
    if (!in_roundtrip_scope(f.path)) continue;
    std::string current_type;  // last struct/class name seen in this file
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
      std::string code = strip_line_comment(f.lines[i]);
      // `enum class Kind` must not shadow the enclosing payload struct:
      // scoped-enum heads are not types with their own encode().
      static const std::regex enum_head_re(R"(\benum\s+(?:class|struct)\b)");
      code = std::regex_replace(code, enum_head_re, "enum");
      std::smatch m;
      if (std::regex_search(code, m, type_re)) current_type = m[1].str();
      if (code.find("void encode(BufWriter") == std::string::npos) continue;
      if (current_type.empty()) {
        out.push_back({f.path, i + 1, "roundtrip-registered",
                       "encode(BufWriter&) outside any struct/class"});
      } else if (registered.count(current_type) == 0) {
        out.push_back(
            {f.path, i + 1, "roundtrip-registered",
             "'" + current_type +
                 "' has encode(BufWriter&) but no 'ablint:roundtrip " +
                 current_type + "' marker under tests/"});
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------- rule 3

bool is_codec_home(const std::string& path) {
  return path == "src/common/codec.hpp" || path == "src/common/codec.cpp";
}

std::vector<Diag> check_raw_wire_access(const std::vector<SourceFile>& src) {
  static const std::regex raw_re(R"(\bmemcpy\s*\(|reinterpret_cast\s*<)");
  static const std::regex sockaddr_re(
      R"(reinterpret_cast\s*<\s*(?:const\s+)?sockaddr\s*\*\s*>)");
  std::vector<Diag> out;
  for (const auto& f : src) {
    if (is_codec_home(f.path)) continue;
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
      const std::string code = strip_line_comment(f.lines[i]);
      if (!std::regex_search(code, raw_re)) continue;
      // The kernel socket API requires sockaddr casts; they are address
      // structs, not wire buffers.
      std::string residue = std::regex_replace(code, sockaddr_re, "");
      if (!std::regex_search(residue, raw_re)) continue;
      out.push_back({f.path, i + 1, "raw-wire-access",
                     "raw memcpy/reinterpret_cast outside common/codec — "
                     "use BufWriter/BufReader"});
    }
  }
  return out;
}

// ---------------------------------------------------------------- rule 4

// The struct walk rules 4 and 7 share: for every `struct <Name> {` block in
// `files` whose name `want` accepts, calls on_member(file, line, name,
// statement) once per member statement declared directly in the block —
// joined across lines up to its `;`, `line` 0-based at its last line.
// Method bodies and nested blocks are skipped by brace depth.
template <typename Want, typename OnMember>
void walk_struct_members(const std::vector<SourceFile>& files, Want want,
                         OnMember on_member) {
  static const std::regex open_re(
      R"(\bstruct\s+([A-Za-z_]\w*)\s*(?:final\s*)?(?::[^{;]*)?\{)");
  const auto braces = [](const std::string& code) {
    int d = 0;
    for (const char c : code) d += c == '{' ? 1 : c == '}' ? -1 : 0;
    return d;
  };
  for (const auto& f : files) {
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
      std::smatch m;
      const std::string head = strip_line_comment(f.lines[i]);
      if (!std::regex_search(head, m, open_re) || !want(m[1].str())) continue;
      const std::string name = m[1].str();
      int depth = braces(m[0].str() + m.suffix().str());
      std::string stmt;
      for (std::size_t j = i + 1; j < f.lines.size() && depth > 0; ++j) {
        const std::string code = trim(strip_line_comment(f.lines[j]));
        const int before = depth;
        depth += braces(code);
        if (before != 1 || depth < 1 || code.empty()) continue;
        if (code.back() == '{' || code.back() == '}' || code.back() == ':') {
          stmt.clear();  // method body, or an access specifier
          continue;
        }
        stmt += stmt.empty() ? code : " " + code;
        if (stmt.back() != ';') continue;
        on_member(f, j, name, stmt);
        stmt.clear();
      }
    }
  }
}

std::vector<Diag> check_metrics_indexed(const std::vector<SourceFile>& src,
                                        const SourceFile& experiments) {
  static const std::map<std::string, std::string> kPrefixes = {
      {"AbMetrics", "ab_"},
      {"ConsensusMetrics", "cons_"},
      {"GroupMetrics", "ab_group_"},
      {"NetMetrics", "net_"}};
  static const std::regex field_re(
      R"(^\s*(?:RelaxedU64|std::uint64_t)\s+([A-Za-z_]\w*)\s*(?:=\s*0\s*)?;)");

  std::string index_text;
  for (const auto& line : experiments.lines) index_text += line + '\n';

  std::vector<Diag> out;
  walk_struct_members(
      src, [](const std::string& name) { return kPrefixes.count(name) != 0; },
      [&](const SourceFile& f, std::size_t line, const std::string& name,
          const std::string& stmt) {
        std::smatch m;
        if (!std::regex_search(stmt, m, field_re)) return;
        const std::string metric = kPrefixes.at(name) + m[1].str();
        if (index_text.find(metric) == std::string::npos) {
          out.push_back({f.path, line + 1, "metrics-indexed",
                         "counter '" + metric +
                             "' is not referenced in the EXPERIMENTS.md "
                             "metrics index"});
        }
      });
  return out;
}

// ---------------------------------------------------------------- rule 5

// Walks the kScenarioClauseKinds array (the scenario DSL's registry of
// clause keywords) and demands an `ablint:scenario-roundtrip <kind>`
// round-trip test marker under tests/ for each entry; markers naming a
// kind that is no longer registered are reported as stale.
std::vector<Diag> check_scenario_roundtrip(
    const std::vector<SourceFile>& src, const std::vector<SourceFile>& tests) {
  static const std::regex kind_re(R"re("([a-z]+)")re");
  static const std::regex marker_re(R"(ablint:scenario-roundtrip\s+([a-z]+))");

  std::set<std::string> markers;
  std::map<std::string, std::pair<std::string, std::size_t>> marker_sites;
  for (const auto& f : tests) {
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
      std::smatch m;
      std::string rest = f.lines[i];
      while (std::regex_search(rest, m, marker_re)) {
        markers.insert(m[1].str());
        marker_sites.emplace(m[1].str(), std::make_pair(f.path, i + 1));
        rest = m.suffix();
      }
    }
  }

  std::vector<Diag> out;
  std::set<std::string> kinds;
  for (const auto& f : src) {
    std::size_t open = f.lines.size();
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
      if (f.lines[i].find("kScenarioClauseKinds[]") != std::string::npos) {
        open = i;
        break;
      }
    }
    for (std::size_t j = open; j < f.lines.size(); ++j) {
      const std::string code = strip_line_comment(f.lines[j]);
      auto begin = std::sregex_iterator(code.begin(), code.end(), kind_re);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        const std::string kind = (*it)[1].str();
        kinds.insert(kind);
        if (markers.count(kind) == 0) {
          out.push_back({f.path, j + 1, "scenario-roundtrip",
                         "clause kind '" + kind +
                             "' has no 'ablint:scenario-roundtrip " + kind +
                             "' round-trip test marker under tests/"});
        }
      }
      if (code.find("};") != std::string::npos) break;
    }
  }
  if (!kinds.empty()) {
    for (const auto& [kind, site] : marker_sites) {
      if (kinds.count(kind) == 0) {
        out.push_back({site.first, site.second, "scenario-roundtrip",
                       "stale marker: '" + kind +
                           "' is not a registered clause kind"});
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------- rule 6

// The roundtrip registry (rule 2's markers under tests/) doubles as the
// fuzz obligation list: every registered message must be dispatched by some
// fuzz harness, proven by an `ablint:fuzz <Name>` marker next to the
// dispatch case under fuzz/. Stale fuzz markers (naming a message with no
// roundtrip registration) are flagged from the fuzz side.
std::vector<Diag> check_fuzz_coverage(const std::vector<SourceFile>& tests,
                                      const std::vector<SourceFile>& fuzz) {
  static const std::regex roundtrip_re(R"(ablint:roundtrip\s+([A-Za-z_]\w*))");
  static const std::regex fuzz_re(R"(ablint:fuzz\s+([A-Za-z_]\w*))");

  std::map<std::string, std::pair<std::string, std::size_t>> registered;
  std::map<std::string, std::pair<std::string, std::size_t>> fuzzed;
  for (const auto& f : tests) {
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
      std::smatch m;
      std::string rest = f.lines[i];
      while (std::regex_search(rest, m, roundtrip_re)) {
        registered.emplace(m[1].str(), std::make_pair(f.path, i + 1));
        rest = m.suffix();
      }
    }
  }
  for (const auto& f : fuzz) {
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
      std::smatch m;
      std::string rest = f.lines[i];
      while (std::regex_search(rest, m, fuzz_re)) {
        fuzzed.emplace(m[1].str(), std::make_pair(f.path, i + 1));
        rest = m.suffix();
      }
    }
  }

  std::vector<Diag> out;
  for (const auto& [name, site] : registered) {
    if (fuzzed.count(name) == 0) {
      out.push_back({site.first, site.second, "fuzz-coverage",
                     "'" + name +
                         "' is roundtrip-registered but no fuzz harness "
                         "carries an 'ablint:fuzz " +
                         name + "' marker under fuzz/"});
    }
  }
  for (const auto& [name, site] : fuzzed) {
    if (registered.count(name) == 0) {
      out.push_back({site.first, site.second, "fuzz-coverage",
                     "stale marker: '" + name +
                         "' has no 'ablint:roundtrip' registration under "
                         "tests/"});
    }
  }
  return out;
}

// ---------------------------------------------------------------- rule 7

// The data member a member statement declares, or "" for anything else
// (methods, aliases, statics, nested types). The name is the last
// identifier before the first top-level `=`, `{` or `;`; a `(` outside
// template brackets before that point marks a function.
std::string data_member_name(const std::string& stmt) {
  static const std::regex skip_re(
      R"(^(?:static|using|friend|typedef|enum|struct|class|template|explicit|virtual|constexpr|inline|return)\b|\boperator\b)");
  static const std::regex name_re(
      R"([\s*&]([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?$)");
  if (std::regex_search(stmt, skip_re)) return {};
  int angle = 0;
  std::size_t end = std::string::npos;
  for (std::size_t i = 0; i < stmt.size() && end == std::string::npos; ++i) {
    const char c = stmt[i];
    if (c == '<') angle += 1;
    if (c == '>') angle -= 1;
    if (angle > 0) continue;
    if (c == '(') return {};
    if (c == '=' || c == '{' || c == ';') end = i;
  }
  std::smatch m;
  const std::string declarator = stmt.substr(0, end);
  if (!std::regex_search(declarator, m, name_re)) return {};
  return m[1].str();
}

// Field name → the files of `users` that assign it: `.f =`, `->f =`, a
// designated `.f =`, or reaching into the field with `.f.`. Matched by
// field name, like rule 4.
std::map<std::string, std::set<std::string>> assigned_fields(
    const std::vector<SourceFile>& users) {
  static const std::regex assign_re(
      R"(\.([A-Za-z_]\w*)(?:\s*=(?!=)|(?=\.))|->([A-Za-z_]\w*)\s*=(?!=))");
  std::map<std::string, std::set<std::string>> assigned_in;
  for (const auto& f : users) {
    for (const auto& line : f.lines) {
      const std::string code = strip_line_comment(line);
      auto begin = std::sregex_iterator(code.begin(), code.end(), assign_re);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        const auto& m = *it;
        assigned_in[m[1].matched ? m[1].str() : m[2].str()].insert(f.path);
      }
    }
  }
  return assigned_in;
}

// Every field of every `struct *Config` / `struct *Options` in src/ must be
// assigned in some file of `users` (src/, tests/, bench/, examples/,
// e2ebench/) other than its defining header. A field no caller ever sets
// is a constant in disguise.
std::vector<Diag> check_config_fields_set(
    const std::vector<SourceFile>& src, const std::vector<SourceFile>& users) {
  static const std::regex config_re(R"(^\w*(?:Config|Options)$)");
  const auto assigned_in = assigned_fields(users);

  std::vector<Diag> out;
  walk_struct_members(
      src,
      [](const std::string& name) { return std::regex_match(name, config_re); },
      [&](const SourceFile& f, std::size_t line, const std::string& name,
          const std::string& stmt) {
        const std::string field = data_member_name(stmt);
        if (field.empty()) return;
        const auto it = assigned_in.find(field);
        const bool elsewhere =
            it != assigned_in.end() &&
            std::any_of(it->second.begin(), it->second.end(),
                        [&f](const std::string& p) { return p != f.path; });
        if (!elsewhere) {
          out.push_back({f.path, line + 1, "config-field-set",
                         "'" + name + "::" + field +
                             "' is never assigned outside its header — "
                             "make it a constant next to its use"});
        }
      });
  return out;
}

// ---------------------------------------------------------------- rule 8

// Every field of `struct Options` in src/ must be assigned in some file of
// `users` under bench/: a protocol knob stays only while a bench row shows
// where it wins (DESIGN.md "Knobs").
std::vector<Diag> check_options_benched(const std::vector<SourceFile>& src,
                                        const std::vector<SourceFile>& users) {
  std::vector<SourceFile> bench;
  std::copy_if(users.begin(), users.end(), std::back_inserter(bench),
               [](const SourceFile& f) {
                 return f.path.rfind("bench/", 0) == 0;
               });
  const auto assigned_in = assigned_fields(bench);

  std::vector<Diag> out;
  walk_struct_members(
      src, [](const std::string& name) { return name == "Options"; },
      [&](const SourceFile& f, std::size_t line, const std::string& name,
          const std::string& stmt) {
        const std::string field = data_member_name(stmt);
        if (field.empty() || assigned_in.count(field) != 0) return;
        out.push_back({f.path, line + 1, "options-benched",
                       "'" + name + "::" + field +
                           "' is assigned in no file under bench/ — add the "
                           "bench row where it wins, or make it a constant"});
      });
  return out;
}

// ------------------------------------------------------------- file loading

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

bool load_file(const fs::path& abs, const std::string& rel, SourceFile& out) {
  std::ifstream in(abs, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out.path = rel;
  out.lines = split_lines(ss.str());
  return true;
}

std::vector<SourceFile> load_tree(const fs::path& root,
                                  const std::string& subdir) {
  std::vector<SourceFile> files;
  const fs::path base = root / subdir;
  if (!fs::exists(base)) return files;
  for (const auto& entry : fs::recursive_directory_iterator(base)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".hpp" && ext != ".cpp") continue;
    SourceFile f;
    if (load_file(entry.path(), fs::relative(entry.path(), root).string(), f))
      files.push_back(std::move(f));
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  return files;
}

// ------------------------------------------------------------------ driver

int report(const std::vector<Diag>& diags) {
  for (const auto& d : diags) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", d.path.c_str(), d.line,
                 d.rule.c_str(), d.msg.c_str());
  }
  if (!diags.empty()) {
    std::fprintf(stderr, "ablint: %zu violation(s)\n", diags.size());
    return 1;
  }
  std::printf("ablint: clean\n");
  return 0;
}

SourceFile mem_file(const std::string& path, const std::string& text) {
  return SourceFile{path, split_lines(text)};
}

// One seeded violation per rule, plus a clean twin — the selftest fails if a
// rule misses its seed (false negative) or fires on the clean twin (false
// positive).
int selftest() {
  int failures = 0;
  const auto expect = [&failures](const char* what,
                                  const std::vector<Diag>& diags,
                                  std::size_t want, const char* rule) {
    const bool rule_ok =
        want == 0 ||
        std::all_of(diags.begin(), diags.end(),
                    [rule](const Diag& d) { return d.rule == rule; });
    if (diags.size() == want && rule_ok) {
      std::printf("  ok   %s\n", what);
    } else {
      std::printf("  FAIL %s: got %zu diagnostic(s), want %zu\n", what,
                  diags.size(), want);
      for (const auto& d : diags)
        std::printf("         %s:%zu [%s] %s\n", d.path.c_str(), d.line,
                    d.rule.c_str(), d.msg.c_str());
      failures += 1;
    }
  };

  // wire-tag-home: seeded re-definition of a tag outside a wire home.
  {
    const auto home = mem_file("src/env/wire.hpp", "  kAbGossip = 48,\n");
    const auto rogue =
        mem_file("src/core/rogue.cpp",
                 "constexpr std::uint16_t kAbGossip = 48;\n"
                 "bool b = t == MsgType::kAbGossip;  // use: fine\n");
    expect("wire-tag-home fires on out-of-home duplicate definition",
           check_wire_tag_homes({home, rogue}), 3, "wire-tag-home");
    expect("wire-tag-home clean on single in-home definition",
           check_wire_tag_homes({home}), 0, "wire-tag-home");

    // kGroup* tags are pinned to group_wire.hpp specifically: a generic
    // wire home is not enough.
    const auto group_home =
        mem_file("src/group/group_wire.hpp",
                 "inline constexpr MsgType kGroupEnvelope =\n"
                 "    static_cast<MsgType>(112);\n");
    const auto group_rogue = mem_file(
        "src/env/wire.hpp", "  kGroupEnvelope = 112,  // wrong home\n");
    expect("wire-tag-home clean on kGroup tag in group_wire.hpp",
           check_wire_tag_homes({group_home}), 0, "wire-tag-home");
    expect("wire-tag-home fires on kGroup tag outside group_wire.hpp",
           check_wire_tag_homes({group_rogue}), 1, "wire-tag-home");
  }

  // roundtrip-registered: seeded encode() with no marker.
  {
    const auto payload = mem_file("src/core/rogue_wire.hpp",
                                  "struct RogueMsg {\n"
                                  "  void encode(BufWriter& w) const;\n"
                                  "};\n");
    const auto with_marker = mem_file(
        "tests/wire_roundtrip_test.cpp", "// ablint:roundtrip RogueMsg\n");
    expect("roundtrip-registered fires on unregistered payload",
           check_roundtrip_registered({payload}, {}), 1,
           "roundtrip-registered");
    expect("roundtrip-registered clean once marker exists",
           check_roundtrip_registered({payload}, {with_marker}), 0,
           "roundtrip-registered");

    // src/group payloads are in scope too.
    const auto group_payload = mem_file("src/group/group_wire.hpp",
                                        "struct GroupEnvelopeMsg {\n"
                                        "  void encode(BufWriter& w) const;\n"
                                        "};\n");
    const auto group_marker =
        mem_file("tests/wire_roundtrip_test.cpp",
                 "// ablint:roundtrip GroupEnvelopeMsg\n");
    expect("roundtrip-registered fires on unregistered src/group payload",
           check_roundtrip_registered({group_payload}, {}), 1,
           "roundtrip-registered");
    expect("roundtrip-registered clean on registered src/group payload",
           check_roundtrip_registered({group_payload}, {group_marker}), 0,
           "roundtrip-registered");

    // So are src/multicast payloads (the FILL datagram).
    const auto mc_payload = mem_file("src/multicast/multicast_wire.hpp",
                                     "struct FillMsg {\n"
                                     "  void encode(BufWriter& w) const;\n"
                                     "};\n");
    expect("roundtrip-registered fires on unregistered src/multicast payload",
           check_roundtrip_registered({mc_payload}, {}), 1,
           "roundtrip-registered");

    // A nested scoped enum must not shadow the payload struct's name.
    const auto enum_payload = mem_file(
        "src/group/group_wire.hpp",
        "struct ShardCommandMsg {\n"
        "  enum class Kind : std::uint8_t { kPlain = 1, kPairOp = 2 };\n"
        "  void encode(BufWriter& w) const;\n"
        "};\n");
    const auto enum_marker = mem_file(
        "tests/wire_roundtrip_test.cpp", "// ablint:roundtrip ShardCommandMsg\n");
    expect("roundtrip-registered attributes encode past a nested enum class",
           check_roundtrip_registered({enum_payload}, {enum_marker}), 0,
           "roundtrip-registered");
  }

  // raw-wire-access: seeded memcpy into a frame outside codec.
  {
    const auto rogue = mem_file(
        "src/net/rogue.cpp",
        "  std::memcpy(frame.data(), &tag, sizeof tag);\n"
        "  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), len);  // exempt\n");
    const auto codec =
        mem_file("src/common/codec.hpp",
                 "  const char* p = reinterpret_cast<const char*>(d);\n");
    expect("raw-wire-access fires on memcpy outside codec",
           check_raw_wire_access({rogue, codec}), 1, "raw-wire-access");
    const auto clean = mem_file("src/net/clean.cpp",
                                "  w.u32(tag);  // through the codec\n");
    expect("raw-wire-access clean on codec-mediated writes",
           check_raw_wire_access({clean, codec}), 0, "raw-wire-access");
  }

  // scenario-roundtrip: seeded clause kind with no round-trip test.
  {
    const auto kinds =
        mem_file("src/scenario/scenario.hpp",
                 "constexpr const char* kScenarioClauseKinds[] = {\n"
                 "    \"part\", \"flap\",\n"
                 "};\n");
    const auto partial = mem_file("tests/scenario_test.cpp",
                                  "// ablint:scenario-roundtrip part\n");
    const auto full = mem_file("tests/scenario_test.cpp",
                               "// ablint:scenario-roundtrip part\n"
                               "// ablint:scenario-roundtrip flap\n");
    const auto stale = mem_file("tests/scenario_test.cpp",
                                "// ablint:scenario-roundtrip part\n"
                                "// ablint:scenario-roundtrip flap\n"
                                "// ablint:scenario-roundtrip ghost\n");
    expect("scenario-roundtrip fires on kind without round-trip test",
           check_scenario_roundtrip({kinds}, {partial}), 1,
           "scenario-roundtrip");
    expect("scenario-roundtrip fires on stale marker",
           check_scenario_roundtrip({kinds}, {stale}), 1,
           "scenario-roundtrip");
    expect("scenario-roundtrip clean when every kind has a marker",
           check_scenario_roundtrip({kinds}, {full}), 0, "scenario-roundtrip");
  }

  // fuzz-coverage: seeded roundtrip registration with no fuzz dispatch.
  {
    const auto registered = mem_file("tests/wire_roundtrip_test.cpp",
                                     "// ablint:roundtrip DecidedMsg\n"
                                     "// ablint:roundtrip NackMsg\n");
    const auto partial = mem_file("fuzz/fuzz_consensus_wire.cpp",
                                  "// ablint:fuzz DecidedMsg\n");
    const auto full = mem_file("fuzz/fuzz_consensus_wire.cpp",
                               "// ablint:fuzz DecidedMsg\n"
                               "// ablint:fuzz NackMsg\n");
    const auto stale = mem_file("fuzz/fuzz_consensus_wire.cpp",
                                "// ablint:fuzz DecidedMsg\n"
                                "// ablint:fuzz NackMsg\n"
                                "// ablint:fuzz GhostMsg\n");
    expect("fuzz-coverage fires on registered message with no fuzz marker",
           check_fuzz_coverage({registered}, {partial}), 1, "fuzz-coverage");
    expect("fuzz-coverage fires on stale fuzz marker",
           check_fuzz_coverage({registered}, {stale}), 1, "fuzz-coverage");
    expect("fuzz-coverage clean when every registration is fuzzed",
           check_fuzz_coverage({registered}, {full}), 0, "fuzz-coverage");
  }

  // metrics-indexed: seeded counter missing from the index.
  {
    const auto metrics = mem_file("src/core/atomic_broadcast.hpp",
                                  "struct AbMetrics {\n"
                                  "  RelaxedU64 broadcasts;\n"
                                  "  RelaxedU64 unindexed_counter;\n"
                                  "};\n");
    const auto index =
        mem_file("EXPERIMENTS.md", "| E2 | `ab_broadcasts` |\n");
    const auto full_index = mem_file(
        "EXPERIMENTS.md", "| E2 | `ab_broadcasts`, `ab_unindexed_counter` |\n");
    expect("metrics-indexed fires on unindexed counter",
           check_metrics_indexed({metrics}, index), 1, "metrics-indexed");
    expect("metrics-indexed clean when every counter is indexed",
           check_metrics_indexed({metrics}, full_index), 0, "metrics-indexed");

    // GroupMetrics counters are indexed under the ab_group_ prefix.
    const auto group_metrics = mem_file("src/group/multi_group_node.hpp",
                                        "struct GroupMetrics {\n"
                                        "  RelaxedU64 pair_holds;\n"
                                        "};\n");
    const auto group_index =
        mem_file("EXPERIMENTS.md", "| E14 | `ab_group_pair_holds` |\n");
    expect("metrics-indexed fires on unindexed group counter",
           check_metrics_indexed({group_metrics}, index), 1,
           "metrics-indexed");
    expect("metrics-indexed clean on indexed group counter",
           check_metrics_indexed({group_metrics}, group_index), 0,
           "metrics-indexed");
  }

  // config-field-set: a seeded field set only inside its own header.
  {
    const auto header = mem_file("src/foo/widget.hpp",
                                 "struct WidgetConfig {\n"
                                 "  std::uint32_t size = 1;\n"
                                 "  Duration period = millis(5);  // unset\n"
                                 "  std::function<void(int)>\n"
                                 "      on_change;\n"
                                 "  static WidgetConfig big() {\n"
                                 "    WidgetConfig c;\n"
                                 "    c.period = millis(9);  // own header\n"
                                 "    return c;\n"
                                 "  }\n"
                                 "  bool valid() const;\n"
                                 "};\n");
    const auto partial = mem_file("tests/widget_test.cpp",
                                  "  cfg.size = 3;\n"
                                  "  cfg.on_change = nullptr;\n"
                                  "  EXPECT_TRUE(cfg.period == millis(5));\n");
    const auto full = mem_file("tests/widget_test.cpp",
                               "  cfg.size = 3;\n"
                               "  cfg.on_change = nullptr;\n"
                               "  Holder h{.widget = {.period = millis(7)}};\n");
    expect("config-field-set fires on a field set only in its header",
           check_config_fields_set({header}, {header, partial}), 1,
           "config-field-set");
    expect("config-field-set clean once every field has a caller",
           check_config_fields_set({header}, {header, full}), 0,
           "config-field-set");
  }

  // options-benched: a seeded knob that only a test assigns.
  {
    const auto options = mem_file("src/core/options.hpp",
                                  "struct Options {\n"
                                  "  bool benched = false;\n"
                                  "  bool tested = false;\n"
                                  "  static Options all() {\n"
                                  "    Options o;\n"
                                  "    o.tested = true;  // own header\n"
                                  "    return o;\n"
                                  "  }\n"
                                  "};\n");
    const auto bench = mem_file("bench/bench_widget.cpp",
                                "  cfg.stack.ab.benched = true;\n");
    const auto test = mem_file("tests/widget_test.cpp",
                               "  cfg.stack.ab.tested = true;\n");
    const auto full = mem_file("bench/bench_widget.cpp",
                               "  cfg.stack.ab.benched = true;\n"
                               "  cfg.stack.ab.tested = true;\n");
    expect("options-benched fires on a knob assigned only under tests/",
           check_options_benched({options}, {options, bench, test}), 1,
           "options-benched");
    expect("options-benched clean once a bench assigns every knob",
           check_options_benched({options}, {options, full, test}), 0,
           "options-benched");
  }

  if (failures == 0) {
    std::printf("ablint selftest: all rules fire on seeded violations\n");
    return 0;
  }
  std::printf("ablint selftest: %d FAILURE(S)\n", failures);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return selftest();
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: ablint [--root <repo-root>] [--selftest]\n");
      return 0;
    } else {
      std::fprintf(stderr, "ablint: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }

  if (!fs::exists(root / "src")) {
    std::fprintf(stderr,
                 "ablint: no src/ under '%s' (pass --root <repo-root>)\n",
                 root.string().c_str());
    return 2;
  }

  const auto src = load_tree(root, "src");
  const auto tests = load_tree(root, "tests");
  const auto fuzz = load_tree(root, "fuzz");
  SourceFile experiments;
  if (!load_file(root / "EXPERIMENTS.md", "EXPERIMENTS.md", experiments)) {
    std::fprintf(stderr, "ablint: cannot read EXPERIMENTS.md under '%s'\n",
                 root.string().c_str());
    return 2;
  }

  std::vector<Diag> diags;
  const auto add = [&diags](std::vector<Diag> v) {
    diags.insert(diags.end(), v.begin(), v.end());
  };
  add(check_wire_tag_homes(src));
  add(check_roundtrip_registered(src, tests));
  add(check_raw_wire_access(src));
  add(check_metrics_indexed(src, experiments));
  add(check_scenario_roundtrip(src, tests));
  add(check_fuzz_coverage(tests, fuzz));
  std::vector<SourceFile> users = src;
  for (const char* dir : {"tests", "bench", "examples", "e2ebench"}) {
    auto more = load_tree(root, dir);
    users.insert(users.end(), more.begin(), more.end());
  }
  add(check_config_fields_set(src, users));
  add(check_options_benched(src, users));
  return report(diags);
}
