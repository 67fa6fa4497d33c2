#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/ast.h"
#include "core/guard.h"
#include "serve/protocol.h"
#include "table/schema.h"
#include "table/table.h"

// Correctness oracles written apart from the program's evaluators: they read
// the program's statements directly and share no code with the compiled
// kernel, the interpreter or the serving engine.
namespace perfbench {

/// Code given to a label the schema does not know: it equals no literal.
inline constexpr guardrail::ValueId kUnseenCode = -2;

/// Number of statements `row` violates under the DSL's semantics: in each
/// statement the first branch whose condition holds fires, and the row
/// violates that statement when its dependent differs from the branch's
/// literal. A statement with no firing branch is satisfied.
int ReferenceViolations(const guardrail::core::Program& program,
                        const guardrail::Row& row);

/// Dependents of the statements `row` violates, in statement order.
std::vector<guardrail::AttrIndex> ReferenceViolatedTargets(
    const guardrail::core::Program& program, const guardrail::Row& row);

/// The row `row` becomes under `scheme`, per the schemes' documented
/// semantics (core/guard.h), every violation judged on the unrepaired row:
///   kIgnore  — unchanged.
///   kCoerce  — each violated statement's dependent set to NULL.
///   kRectify — per violated statement, in order: nothing when the observed
///              dependent is one of the fired branch's tolerated values;
///              otherwise the dependent is set to the fired branch's literal,
///              unless a sibling branch with strictly higher support, whose
///              condition differs from the fired one in exactly one equality
///              (same attributes, same order), assigns exactly the observed
///              dependent — then that determinant takes the sibling's value.
///              Among such siblings the first with the highest support wins.
guardrail::Row ReferenceRepair(const guardrail::core::Program& program,
                               const guardrail::Row& row,
                               guardrail::core::ErrorPolicy scheme);

/// One cell a repair changes.
struct CellChange {
  guardrail::RowIndex row = 0;
  guardrail::AttrIndex column = 0;
  guardrail::ValueId value = 0;
};

/// Every cell ReferenceRepair changes in `table` under `scheme`, row-major.
std::vector<CellChange> ReferenceRepairs(
    const guardrail::core::Program& program, const guardrail::Table& table,
    guardrail::core::ErrorPolicy scheme);

/// Whether `got` equals `before` with exactly `changes` (row-major) applied.
bool MatchesRepairs(const guardrail::Table& got,
                    const guardrail::Table& before,
                    const std::vector<CellChange>& changes);

/// Per-row violation flags for rows [begin, begin + count) of `table`.
std::vector<bool> ReferenceFlags(const guardrail::core::Program& program,
                                 const guardrail::Table& table,
                                 guardrail::RowIndex begin, int64_t count);

/// Resolves labels to codes under `schema`; unknown labels get kUnseenCode.
guardrail::Row EncodeLabels(const guardrail::Schema& schema,
                            const std::vector<std::string>& labels);

/// Counts of an epsilon-validity audit: a branch is valid when, over the
/// rows its condition matches, the rows whose dependent differs from its
/// literal are at most epsilon times the matched rows.
struct EpsilonAudit {
  int64_t branches = 0;
  int64_t invalid = 0;
};
EpsilonAudit AuditEpsilonValidity(const guardrail::core::Program& program,
                                  const guardrail::Table& train,
                                  double epsilon);

/// The high-cardinality serving data: a key attribute with `keys` labels, a
/// dependent value that is a fixed function of the key, and a free note.
struct HighcardSpec {
  int32_t keys = 12288;
  int32_t values = 64;
  int32_t notes = 8;
  uint64_t seed = 1;
};
std::string HighcardKeyLabel(int32_t key);
std::string HighcardValueLabel(int32_t value);
std::string HighcardNoteLabel(int32_t note);
/// The generator's value for `key` — what every clean row carries.
int32_t HighcardExpectedValue(const HighcardSpec& spec, int32_t key);

/// What the one-branch-per-key program must answer for one labelled row
/// (key, value, note) under ignore or rectify. Every branch has the same
/// support, so a rectify repair always rewrites the value to the
/// generator's; a key outside the dictionary fires no branch.
guardrail::serve::RowResult HighcardExpectedResult(
    const HighcardSpec& spec, const std::vector<std::string>& labels,
    guardrail::core::ErrorPolicy scheme);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
