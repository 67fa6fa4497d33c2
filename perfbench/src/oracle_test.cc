#include "oracle_test.h"

#include "oracle.h"

namespace perfbench {
namespace {

using guardrail::Attribute;
using guardrail::Row;
using guardrail::Schema;
namespace core = guardrail::core;

Schema HandSchema() {
  Attribute a("a");
  for (const char* l : {"a0", "a1", "a2"}) a.GetOrInsert(l);
  Attribute b("b");
  for (const char* l : {"b0", "b1"}) b.GetOrInsert(l);
  Attribute c("c");
  for (const char* l : {"c0", "c1"}) c.GetOrInsert(l);
  return Schema({a, b, c});
}

core::Branch MakeBranch(std::vector<std::pair<guardrail::AttrIndex,
                                              guardrail::ValueId>> cond,
                        guardrail::AttrIndex target,
                        guardrail::ValueId assignment) {
  core::Branch branch;
  branch.condition.equalities = std::move(cond);
  branch.target = target;
  branch.assignment = assignment;
  return branch;
}

// a (0..2), b (0..1), c (0..1).
//   S0: GIVEN a ON b:   IF a=0 THEN b<-1; IF a=1 THEN b<-0
//   S1: GIVEN a,b ON c: IF a=0 AND b=1 THEN c<-0; IF a=0 THEN c<-1
core::Program HandProgram() {
  core::Program program;
  core::Statement s0;
  s0.determinants = {0};
  s0.dependent = 1;
  s0.branches = {MakeBranch({{0, 0}}, 1, 1), MakeBranch({{0, 1}}, 1, 0)};
  core::Statement s1;
  s1.determinants = {0, 1};
  s1.dependent = 2;
  s1.branches = {MakeBranch({{0, 0}, {1, 1}}, 2, 0),
                 MakeBranch({{0, 0}}, 2, 1)};
  program.statements = {s0, s1};
  return program;
}

void TestReferenceEvaluator(RunLog* log) {
  const core::Program program = HandProgram();
  struct Case {
    Row row;
    int violations;
  };
  const Case cases[] = {
      {{0, 1, 0}, 0},            // Both statements' first branches hold.
      {{0, 0, 0}, 2},            // S0 fires and fails; S1 falls through.
      {{0, 1, 1}, 1},            // First match wins in S1, not the second.
      {{2, 0, 1}, 0},            // No branch fires anywhere.
      {{1, 0, kUnseenCode}, 0},  // Unseen dependent, but nothing fires on c.
      {{1, kUnseenCode, 0}, 1},  // An unseen dependent never equals a literal.
  };
  for (const Case& c : cases) {
    log->Check(ReferenceViolations(program, c.row) == c.violations,
               "oracle self-test: reference evaluator on a hand-built row");
  }
  const Row encoded = EncodeLabels(HandSchema(), {"a1", "zzz", "c0"});
  log->Check(encoded == Row({1, kUnseenCode, 0}),
             "oracle self-test: label encoding");
}

void TestReferenceRepair(RunLog* log) {
  const core::Program hand = HandProgram();
  using core::ErrorPolicy;
  // {0,0,0} violates S0 (b) and S1's second branch (c).
  log->Check(ReferenceRepair(hand, {0, 0, 0}, ErrorPolicy::kCoerce) ==
                 Row({0, guardrail::kNullValue, guardrail::kNullValue}),
             "oracle self-test: coerce nulls every violated dependent");
  log->Check(ReferenceRepair(hand, {0, 0, 0}, ErrorPolicy::kIgnore) ==
                 Row({0, 0, 0}),
             "oracle self-test: ignore leaves the row");
  // S1's first branch fires on {0,1,1}; its only sibling has one equality,
  // so it is no determinant hypothesis and the dependent is rewritten.
  log->Check(ReferenceRepair(hand, {0, 1, 1}, ErrorPolicy::kRectify) ==
                 Row({0, 1, 0}),
             "oracle self-test: rectify rewrites the dependent");

  //   GIVEN a ON b: IF a=0 THEN b<-1 (support 10); IF a=1 THEN b<-0 (50);
  //                 IF a=2 THEN b<-0 (5, tolerates b=1)
  core::Program map;
  core::Statement stmt;
  stmt.determinants = {0};
  stmt.dependent = 1;
  stmt.branches = {MakeBranch({{0, 0}}, 1, 1), MakeBranch({{0, 1}}, 1, 0),
                   MakeBranch({{0, 2}}, 1, 0)};
  stmt.branches[0].support = 10;
  stmt.branches[1].support = 50;
  stmt.branches[2].support = 5;
  stmt.branches[2].tolerated_values = {1};
  map.statements = {stmt};
  log->Check(ReferenceRepair(map, {0, 0, 0}, ErrorPolicy::kRectify) ==
                 Row({1, 0, 0}),
             "oracle self-test: rectify repairs the likelier determinant");
  log->Check(ReferenceRepair(map, {2, 1, 0}, ErrorPolicy::kRectify) ==
                 Row({2, 1, 0}),
             "oracle self-test: rectify keeps a tolerated deviation");
  map.statements[0].branches[1].support = 10;  // A tie favours the dependent.
  log->Check(ReferenceRepair(map, {0, 0, 0}, ErrorPolicy::kRectify) ==
                 Row({0, 1, 0}),
             "oracle self-test: rectify ties favour the dependent");

  guardrail::Table table(HandSchema());
  (void)table.AppendRow({0, 1, 0});
  (void)table.AppendRow({0, 0, 0});
  const std::vector<CellChange> changes =
      ReferenceRepairs(hand, table, ErrorPolicy::kCoerce);
  log->Check(changes.size() == 2 && changes[0].row == 1 &&
                 changes[0].column == 1 && changes[1].column == 2,
             "oracle self-test: repairs are listed row-major");
  guardrail::Table repaired = table;
  repaired.Set(1, 1, guardrail::kNullValue);
  log->Check(!MatchesRepairs(repaired, table, changes),
             "oracle self-test: a missing repair is caught");
  repaired.Set(1, 2, guardrail::kNullValue);
  log->Check(MatchesRepairs(repaired, table, changes),
             "oracle self-test: the expected repairs match");
  repaired.Set(0, 0, 1);
  log->Check(!MatchesRepairs(repaired, table, changes),
             "oracle self-test: a stray write is caught");
}

void TestEpsilonAudit(RunLog* log) {
  guardrail::Table table(HandSchema());
  for (int i = 0; i < 10; ++i) {
    (void)table.AppendRow({0, i == 0 ? 0 : 1, 0});
  }
  core::Program program;
  core::Statement stmt;
  stmt.determinants = {0};
  stmt.dependent = 1;
  // One deviation in ten matched rows; the a=1 branch matches nothing.
  stmt.branches = {MakeBranch({{0, 0}}, 1, 1), MakeBranch({{0, 1}}, 1, 0)};
  program.statements = {stmt};
  EpsilonAudit strict = AuditEpsilonValidity(program, table, 0.05);
  EpsilonAudit loose = AuditEpsilonValidity(program, table, 0.10);
  log->Check(strict.branches == 2 && strict.invalid == 1,
             "oracle self-test: 1/10 loss is not 0.05-valid");
  log->Check(loose.branches == 2 && loose.invalid == 0,
             "oracle self-test: 1/10 loss is 0.10-valid");
}

void TestHighcardExpectation(RunLog* log) {
  HighcardSpec spec;
  spec.keys = 100;
  spec.values = 7;
  spec.seed = 42;
  const int32_t v5 = HighcardExpectedValue(spec, 5);
  log->Check(v5 >= 0 && v5 < spec.values && v5 == HighcardExpectedValue(spec, 5),
             "oracle self-test: generator value is fixed and in range");
  const std::string good = HighcardValueLabel(v5);
  const auto ok = HighcardExpectedResult(spec, {"k5", good, "n1"},
                                         core::ErrorPolicy::kRectify);
  log->Check(ok.verdict == guardrail::serve::RowVerdict::kOk &&
                 ok.detail.empty(),
             "oracle self-test: clean row passes");
  const auto ignored = HighcardExpectedResult(spec, {"k5", "bad", "n1"},
                                              core::ErrorPolicy::kIgnore);
  log->Check(ignored.verdict == guardrail::serve::RowVerdict::kViolation &&
                 ignored.violations == 1 && ignored.detail.empty(),
             "oracle self-test: ignore flags without a repair");
  const auto rectified = HighcardExpectedResult(spec, {"k5", "bad", "n1"},
                                                core::ErrorPolicy::kRectify);
  log->Check(rectified.detail == "k5," + good + ",n1",
             "oracle self-test: rectify rewrites the value");
  for (const char* key : {"k100", "kx", "unk3"}) {
    const auto unseen = HighcardExpectedResult(spec, {key, "bad", "n1"},
                                               core::ErrorPolicy::kRectify);
    log->Check(unseen.verdict == guardrail::serve::RowVerdict::kOk,
               "oracle self-test: a key outside the dictionary fires nothing");
  }
}

}  // namespace

void RunOracleSelfTest(RunLog* log) {
  TestReferenceEvaluator(log);
  TestReferenceRepair(log);
  TestEpsilonAudit(log);
  TestHighcardExpectation(log);
}

}  // namespace perfbench
