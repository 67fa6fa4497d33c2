#include "oracle.h"

#include <algorithm>

namespace perfbench {

using guardrail::AttrIndex;
using guardrail::Row;
using guardrail::ValueId;
namespace core = guardrail::core;

namespace {

/// A statement the row violates: the branch that fired and the observed
/// dependent.
struct Fired {
  const core::Statement* statement;
  const core::Branch* branch;
  ValueId actual;
};

std::vector<Fired> ViolatedStatements(const core::Program& program,
                                      const Row& row) {
  std::vector<Fired> out;
  for (const core::Statement& stmt : program.statements) {
    for (const core::Branch& branch : stmt.branches) {
      bool fires = true;
      for (const auto& [attr, literal] : branch.condition.equalities) {
        if (row.at(static_cast<size_t>(attr)) != literal) {
          fires = false;
          break;
        }
      }
      if (!fires) continue;
      const ValueId actual = row.at(static_cast<size_t>(branch.target));
      if (actual != branch.assignment) out.push_back({&stmt, &branch, actual});
      break;
    }
  }
  return out;
}

/// Index of the one equality in which `a` and `b` differ, or -1 when they
/// differ in none, in more than one, or in their attributes.
int SingleDifferingEquality(const core::Condition& a,
                            const core::Condition& b) {
  if (a.equalities.size() != b.equalities.size()) return -1;
  int differing = -1;
  for (size_t i = 0; i < a.equalities.size(); ++i) {
    if (a.equalities[i].first != b.equalities[i].first) return -1;
    if (a.equalities[i].second == b.equalities[i].second) continue;
    if (differing >= 0) return -1;
    differing = static_cast<int>(i);
  }
  return differing;
}

}  // namespace

std::vector<AttrIndex> ReferenceViolatedTargets(const core::Program& program,
                                                const Row& row) {
  std::vector<AttrIndex> targets;
  for (const Fired& f : ViolatedStatements(program, row)) {
    targets.push_back(f.branch->target);
  }
  return targets;
}

Row ReferenceRepair(const core::Program& program, const Row& row,
                    core::ErrorPolicy scheme) {
  Row out = row;
  if (scheme != core::ErrorPolicy::kCoerce &&
      scheme != core::ErrorPolicy::kRectify) {
    return out;
  }
  for (const Fired& f : ViolatedStatements(program, row)) {
    if (scheme == core::ErrorPolicy::kCoerce) {
      out[static_cast<size_t>(f.branch->target)] = guardrail::kNullValue;
      continue;
    }
    const std::vector<ValueId>& tolerated = f.branch->tolerated_values;
    if (std::find(tolerated.begin(), tolerated.end(), f.actual) !=
        tolerated.end()) {
      continue;
    }
    int64_t best = f.branch->support;
    AttrIndex attr = f.branch->target;
    ValueId value = f.branch->assignment;
    for (const core::Branch& sibling : f.statement->branches) {
      if (sibling.assignment != f.actual || sibling.support <= best) continue;
      const int d =
          SingleDifferingEquality(sibling.condition, f.branch->condition);
      if (d < 0) continue;
      best = sibling.support;
      attr = sibling.condition.equalities[static_cast<size_t>(d)].first;
      value = sibling.condition.equalities[static_cast<size_t>(d)].second;
    }
    out[static_cast<size_t>(attr)] = value;
  }
  return out;
}

std::vector<CellChange> ReferenceRepairs(const core::Program& program,
                                         const guardrail::Table& table,
                                         core::ErrorPolicy scheme) {
  std::vector<CellChange> changes;
  for (guardrail::RowIndex r = 0; r < table.num_rows(); ++r) {
    const Row row = table.GetRow(r);
    const Row repaired = ReferenceRepair(program, row, scheme);
    for (size_t c = 0; c < row.size(); ++c) {
      if (repaired[c] != row[c]) {
        changes.push_back({r, static_cast<AttrIndex>(c), repaired[c]});
      }
    }
  }
  return changes;
}

bool MatchesRepairs(const guardrail::Table& got,
                    const guardrail::Table& before,
                    const std::vector<CellChange>& changes) {
  if (got.num_rows() != before.num_rows() ||
      got.num_columns() != before.num_columns()) {
    return false;
  }
  size_t next = 0;
  for (guardrail::RowIndex r = 0; r < got.num_rows(); ++r) {
    for (AttrIndex c = 0; c < got.num_columns(); ++c) {
      ValueId expected = before.Get(r, c);
      if (next < changes.size() && changes[next].row == r &&
          changes[next].column == c) {
        expected = changes[next++].value;
      }
      if (got.Get(r, c) != expected) return false;
    }
  }
  return next == changes.size();
}

int ReferenceViolations(const core::Program& program, const Row& row) {
  return static_cast<int>(ReferenceViolatedTargets(program, row).size());
}

std::vector<bool> ReferenceFlags(const core::Program& program,
                                 const guardrail::Table& table,
                                 guardrail::RowIndex begin, int64_t count) {
  std::vector<bool> flags(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    flags[static_cast<size_t>(i)] =
        ReferenceViolations(program, table.GetRow(begin + i)) > 0;
  }
  return flags;
}

Row EncodeLabels(const guardrail::Schema& schema,
                 const std::vector<std::string>& labels) {
  Row row(labels.size(), kUnseenCode);
  for (size_t c = 0; c < labels.size(); ++c) {
    ValueId code =
        schema.attribute(static_cast<AttrIndex>(c)).Lookup(labels[c]);
    if (code != guardrail::kNullValue) row[c] = code;
  }
  return row;
}

EpsilonAudit AuditEpsilonValidity(const core::Program& program,
                                  const guardrail::Table& train,
                                  double epsilon) {
  EpsilonAudit audit;
  for (const core::Statement& stmt : program.statements) {
    for (const core::Branch& branch : stmt.branches) {
      int64_t matched = 0;
      int64_t deviating = 0;
      for (guardrail::RowIndex r = 0; r < train.num_rows(); ++r) {
        bool fires = true;
        for (const auto& [attr, literal] : branch.condition.equalities) {
          if (train.Get(r, attr) != literal) {
            fires = false;
            break;
          }
        }
        if (!fires) continue;
        ++matched;
        if (train.Get(r, branch.target) != branch.assignment) ++deviating;
      }
      ++audit.branches;
      if (static_cast<double>(deviating) >
          epsilon * static_cast<double>(matched)) {
        ++audit.invalid;
      }
    }
  }
  return audit;
}

std::string HighcardKeyLabel(int32_t key) { return "k" + std::to_string(key); }
std::string HighcardValueLabel(int32_t value) {
  return "v" + std::to_string(value);
}
std::string HighcardNoteLabel(int32_t note) {
  return "n" + std::to_string(note);
}

int32_t HighcardExpectedValue(const HighcardSpec& spec, int32_t key) {
  // splitmix64 of (seed, key): a fixed pseudo-random function.
  uint64_t z = spec.seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(key);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<int32_t>(z % static_cast<uint64_t>(spec.values));
}

guardrail::serve::RowResult HighcardExpectedResult(
    const HighcardSpec& spec, const std::vector<std::string>& labels,
    core::ErrorPolicy scheme) {
  guardrail::serve::RowResult out;
  const std::string& key = labels.at(0);
  int32_t key_index = -1;
  if (key.size() > 1 && key[0] == 'k' &&
      key.find_first_not_of("0123456789", 1) == std::string::npos) {
    key_index = std::stoi(key.substr(1));
  }
  if (key_index < 0 || key_index >= spec.keys) return out;
  const std::string expected =
      HighcardValueLabel(HighcardExpectedValue(spec, key_index));
  if (labels.at(1) == expected) return out;
  out.verdict = guardrail::serve::RowVerdict::kViolation;
  out.violations = 1;
  if (scheme == core::ErrorPolicy::kRectify) {
    // Generated labels are plain alphanumerics: no CSV quoting applies.
    out.detail = key + "," + expected + "," + labels.at(2);
  }
  return out;
}

}  // namespace perfbench
