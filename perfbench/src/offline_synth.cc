// offline_synth: synthesis from noisy samples, then the offline guard.
//
// Each round re-synthesizes a program for every dataset (aux sample -> PC ->
// MEC -> fill -> minimize + certify), publishes it through the registry's
// certificate gate, and then guards error-injected rows from the same SEMs
// (every dataset but Adult) with Guard::ProcessTable under ignore / coerce /
// rectify, an equal number of calls each, and with a guarded SQL scan.
// Synthesis runs on one thread. Dictionaries stay at most 24 labels and
// nothing crosses a wire, so the pgm, fill, analysis and compiled-kernel
// layers do nearly all the work.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/checker.h"
#include "analysis/semantic.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/batch_eval.h"
#include "core/guard.h"
#include "core/serialization.h"
#include "core/synthesizer.h"
#include "ml/model.h"
#include "oracle.h"
#include "pgm/auxiliary_sampler.h"
#include "pgm/mec_enumerator.h"
#include "pgm/pc_algorithm.h"
#include "serve/registry.h"
#include "sql/executor.h"
#include "table/dataset_repository.h"
#include "table/error_injector.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace core = guardrail::core;
using guardrail::Rng;
using guardrail::StopWatch;
using guardrail::Table;

// Wide Table-2 datasets whose dictionaries stay at or below 24 labels.
constexpr int kDatasetIds[] = {1, 9, 10, 12};
// Synthesis input is fixed: the repository's first kTrainRows rows of each
// dataset and one auxiliary-sampler seed (the streaming synthesizer's
// default). The MEC size, and with it the synthesis time, swings several-fold
// with the sample and the sampler seed, so seeded synthesis inputs would
// measure the draw, not the code. The run's seed drives the guarded rows.
constexpr int64_t kTrainRows = 8000;
constexpr uint64_t kSynthesisSeed = 7;
// On this fixed input Adult's certified-minimized ensemble carries a GRL301
// contradiction and the registry refuses to publish it. The benchmark keeps
// that publish as the one operation that fails, identically in every round.
// Adult is synthesized and published only: the guard phase runs on the other
// datasets whatever Adult's publish does, so mending the fault changes one
// publish per round, not the amount of guard work.
constexpr int kKnownFaultId = 1;
// Guarded rows per call: large enough to amortize per-call overhead, small
// enough that a chunk and its verdict stay cache-resident.
constexpr int64_t kChunkRows = 16384;
constexpr int kCallsPerScheme = 12;
constexpr int kSetupReps = 5;
constexpr core::ErrorPolicy kSchemes[] = {core::ErrorPolicy::kIgnore,
                                          core::ErrorPolicy::kCoerce,
                                          core::ErrorPolicy::kRectify};

/// ML_PREDICT stand-in: echoes the label column, so SQL time is scan and
/// guard time rather than model time.
class EchoModel : public guardrail::ml::Model {
 public:
  explicit EchoModel(guardrail::AttrIndex label) : label_(label) {}
  guardrail::ValueId Predict(const guardrail::Row& row) const override {
    return row[static_cast<size_t>(label_)];
  }
  std::vector<double> PredictProbabilities(
      const guardrail::Row&) const override {
    return {1.0};
  }
  std::string name() const override { return "echo"; }
  guardrail::AttrIndex label_column() const override { return label_; }

 private:
  guardrail::AttrIndex label_;
};

struct Dataset {
  std::string name;
  bool known_fault = false;
  /// Whether the guard phase runs on this dataset (all but Adult).
  bool guarded = false;
  guardrail::AttrIndex label = 0;
  Table train;
  /// Guarded datasets: kChunkRows rows from the same SEM with 1% of cells
  /// corrupted.
  Table dirty;
  /// First round's synthesized bytes; every later round must reproduce them.
  std::string synthesized_text;
  std::vector<bool> oracle_flags;
  int64_t oracle_flagged = 0;
  int64_t oracle_violations = 0;
  /// The reference repairs of `dirty` under coerce and rectify.
  std::vector<CellChange> coerce_changes;
  std::vector<CellChange> rectify_changes;
  /// Per dirty row: what the guarded scan must predict ("" = NULL).
  std::vector<std::string> expected_predictions;
};

std::vector<Dataset> MakeDatasets(uint64_t seed) {
  std::vector<Dataset> out;
  for (int id : kDatasetIds) {
    // Synthesis reads the repository's own sample of the dataset; the guarded
    // rows are fresh draws from its SEM under `seed`.
    guardrail::DatasetBundle bundle =
        guardrail::DatasetRepository::Build(id, kTrainRows);
    Dataset ds;
    ds.name = "ds" + std::to_string(id);
    ds.known_fault = id == kKnownFaultId;
    ds.guarded = !ds.known_fault;
    ds.label = bundle.label_column;
    ds.train = std::move(bundle.clean);
    if (!ds.guarded) {
      out.push_back(std::move(ds));
      continue;
    }
    Rng rng(seed * 1000003ULL + static_cast<uint64_t>(id));
    Table fresh = bundle.sem->Sample(kChunkRows, &rng);
    // The guarded rows must use the training table's codes: append them by
    // label so both tables share one dictionary.
    Table test(ds.train.schema());
    for (guardrail::RowIndex r = 0; r < fresh.num_rows(); ++r) {
      std::vector<std::string> labels;
      for (guardrail::AttrIndex c = 0; c < fresh.num_columns(); ++c) {
        labels.push_back(fresh.GetLabel(r, c));
      }
      test.AppendRowLabels(labels);
    }
    guardrail::ErrorInjectionOptions inject;
    ds.dirty = guardrail::InjectErrors(test, inject, &rng).dirty;
    out.push_back(std::move(ds));
  }
  return out;
}

core::SynthesisOptions SynthOptions() {
  core::SynthesisOptions options;
  options.num_threads = 1;
  options.pc.num_threads = 1;
  options.fill.num_threads = 1;
  return options;
}

/// The served text of a synthesis: the certified-minimized program when
/// minimization ran, as the streaming publisher writes it.
std::string ServedText(const core::SynthesisReport& report,
                       const guardrail::Schema& schema) {
  if (report.minimized) {
    return core::SerializeProgram(report.minimization.program, schema,
                                  guardrail::analysis::kMinimizedMarker + 2);
  }
  return core::SerializeProgram(report.program, schema, "offline_synth");
}

struct Synthesized {
  bool ok = false;
  std::string text;
  std::string certificate;
  int64_t statements_raw = 0;
  int64_t statements_min = 0;
  core::SynthesisReport report;
};

/// The untraced path: one Synthesizer::Synthesize call.
Synthesized SynthesizeWhole(const Dataset& ds) {
  Synthesized out;
  core::Synthesizer synthesizer(SynthOptions());
  Rng rng(kSynthesisSeed);
  out.report = synthesizer.Synthesize(ds.train, &rng);
  out.ok = !out.report.budget_expired && !out.report.program.empty() &&
           out.report.minimized;
  out.text = ServedText(out.report, ds.train.schema());
  out.certificate = out.report.minimization.certificate;
  out.statements_raw = out.report.minimization.statements_before;
  out.statements_min = out.report.minimization.statements_after;
  return out;
}

/// Stage figures of the traced path that are not span self times.
struct StageCounts {
  double fill_seconds = 0.0;
  int64_t ci_tests = 0;
  int64_t dags = 0;
};

/// The traced path: the same pipeline as Synthesize, driven stage by stage
/// through each layer's public entry point so every stage gets its own span.
/// SynthesizeFromMec enumerates the MEC itself; the fill time is its span
/// minus the benchmark's own timing of the identical enumeration.
Synthesized SynthesizeStaged(const Dataset& ds, Tracer* tracer,
                             StageCounts* counts) {
  Synthesized out;
  core::SynthesisOptions options = SynthOptions();
  Rng rng(kSynthesisSeed);
  guardrail::pgm::EncodedData encoded;
  {
    ScopedSpan span(tracer, "pgm.aux_sample");
    encoded = guardrail::pgm::SampleAuxiliaryDistribution(ds.train,
                                                          options.aux, &rng);
  }
  guardrail::pgm::PcResult pc;
  {
    ScopedSpan span(tracer, "pgm.pc");
    pc = guardrail::pgm::PcAlgorithm(options.pc).Run(encoded);
  }
  counts->ci_tests += pc.num_ci_tests;
  StopWatch enumerate_watch;
  {
    ScopedSpan span(tracer, "pgm.mec_enumerate");
    guardrail::pgm::Pdag working = pc.cpdag;
    guardrail::pgm::RepairCpdagCycles(&working);
    guardrail::pgm::MecEnumerator::Options enum_options;
    enum_options.max_dags = options.max_dags;
    std::vector<guardrail::pgm::Dag> dags =
        guardrail::pgm::MecEnumerator(enum_options).Enumerate(working);
    counts->dags += static_cast<int64_t>(dags.size());
  }
  const double enumerate_seconds = enumerate_watch.ElapsedSeconds();
  core::SynthesisOptions fill_options = options;
  fill_options.minimize = false;
  StopWatch fill_watch;
  {
    ScopedSpan span(tracer, "core.synthesize_from_mec");
    out.report = core::Synthesizer(fill_options)
                     .SynthesizeFromMec(pc.cpdag, ds.train);
  }
  counts->fill_seconds += std::max(0.0, fill_watch.ElapsedSeconds() -
                                     enumerate_seconds);
  auto minimized = [&] {
    ScopedSpan span(tracer, "analysis.minimize");
    return guardrail::analysis::MinimizeProgram(out.report.ensemble_program,
                                                ds.train.schema(),
                                                options.minimize_options);
  }();
  if (!minimized.ok() || out.report.program.empty()) return out;
  out.report.minimization = std::move(*minimized);
  out.report.minimized = true;
  out.ok = true;
  out.text = ServedText(out.report, ds.train.schema());
  out.certificate = out.report.minimization.certificate;
  out.statements_raw = out.report.minimization.statements_before;
  out.statements_min = out.report.minimization.statements_after;
  return out;
}

/// Benchmark-side split of ProgramRegistry::LoadFromText: the same
/// deserialize, certificate check, analysis and compile it performs, each
/// called and timed on its own (traced run only).
void TracePublishSplit(const std::string& text, const std::string& certificate,
                       const guardrail::Schema& base, Tracer* tracer,
                       RunLog* log) {
  guardrail::Schema schema = base;
  auto program = [&] {
    ScopedSpan span(tracer, "core.deserialize");
    return core::DeserializeProgram(text, &schema);
  }();
  if (!log->Check(program.ok(), "published text deserializes")) return;
  if (!certificate.empty()) {
    guardrail::Status verified = [&] {
      ScopedSpan span(tracer, "analysis.certify");
      return guardrail::analysis::VerifyCertificate(certificate, *program,
                                                    schema);
    }();
    log->Check(verified.ok(), "minimization certificate verifies");
  }
  {
    ScopedSpan span(tracer, "analysis.analyze");
    // Whether the program passes is the registry's call; this span only
    // times the analysis it runs.
    (void)guardrail::analysis::Analyzer().Analyze(*program, schema);
  }
  {
    ScopedSpan span(tracer, "core.compile");
    core::CompiledProgram compiled = core::CompiledProgram::Compile(*program);
    log->Check(compiled.min_row_width() <=
                   static_cast<size_t>(schema.num_attributes()),
               "compiled program fits the schema");
  }
}

const char* GuardSpanName(core::ErrorPolicy scheme) {
  switch (scheme) {
    case core::ErrorPolicy::kIgnore:
      return "core.guard_ignore";
    case core::ErrorPolicy::kCoerce:
      return "core.guard_coerce";
    default:
      return "core.guard_rectify";
  }
}

}  // namespace

std::vector<Metric> RunOfflineSynth(const RunConfig& config, RunLog* log) {
  Tracer tracer(config.trace);
  EndToEnd e2e;

  std::vector<Dataset> datasets;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    StopWatch watch;
    datasets = MakeDatasets(config.seed);
    e2e.setup_seconds.push_back(watch.ElapsedSeconds());
  }

  guardrail::serve::ProgramRegistry registry;
  const std::string query = "SELECT ML_PREDICT('m') AS pred FROM t";
  StageCounts stages;
  int64_t statements_raw = 0;
  int64_t statements_min = 0;
  int64_t cache_hits = 0;
  int64_t cache_lookups = 0;
  int rounds = 0;
  StopWatch run_watch;
  // Round 0 is the warm-up: checked and counted, not timed into metrics.
  for (int round = 0;; ++round) {
    const bool warmup = round == 0;
    if (!warmup && rounds > 0 && run_watch.ElapsedSeconds() >= config.seconds) {
      break;
    }
    if (round == 1) run_watch.Restart();

    double update_seconds = 0.0;
    for (Dataset& ds : datasets) {
      log->Attempt("synthesize");
      StopWatch watch;
      Synthesized synth;
      if (config.trace) {
        ScopedSpan span(&tracer, "update.synthesize");
        synth = SynthesizeStaged(ds, &tracer, &stages);
      } else {
        synth = SynthesizeWhole(ds);
      }
      if (!synth.ok) {
        log->Fail("synthesize", ds.name + ": synthesis degraded or empty");
        continue;
      }
      if (config.trace) {
        TracePublishSplit(synth.text, synth.certificate, ds.train.schema(),
                          &tracer, log);
      }
      log->Attempt("publish");
      guardrail::Result<uint64_t> version = [&] {
        ScopedSpan span(&tracer, "serve.publish");
        return registry.LoadFromText(ds.name, synth.text, ds.train.schema(),
                                     "", synth.certificate);
      }();
      update_seconds += watch.ElapsedSeconds();
      // Checks of the synthesis itself hold whether or not it publishes.
      if (warmup) {
        ds.synthesized_text = synth.text;
        statements_raw += synth.statements_raw;
        statements_min += synth.statements_min;
        cache_hits += synth.report.cache_hits;
        cache_lookups += synth.report.cache_hits + synth.report.cache_misses;
        // Every served branch and every branch of the chosen program must be
        // epsilon-valid on the split it was filled from.
        const double epsilon = SynthOptions().fill.epsilon;
        EpsilonAudit served = AuditEpsilonValidity(
            synth.report.minimization.program, ds.train, epsilon);
        EpsilonAudit chosen =
            AuditEpsilonValidity(synth.report.program, ds.train, epsilon);
        log->Check(served.branches > 0 && served.invalid == 0 &&
                       chosen.invalid == 0,
                   ds.name + ": synthesized branches are epsilon-valid (" +
                       std::to_string(served.invalid + chosen.invalid) +
                       " invalid)");
        if (config.trace) {
          // The staged pipeline must publish what Synthesize publishes.
          log->Check(SynthesizeWhole(ds).text == synth.text,
                     ds.name + ": staged synthesis matches Synthesize");
        }
      } else {
        log->Check(synth.text == ds.synthesized_text,
                   ds.name + ": synthesis is deterministic across rounds");
      }
      if (!version.ok()) {
        const std::string why = version.status().ToString();
        log->Fail("publish", ds.name + ": " + why,
                  ds.known_fault && why.find("GRL301") != std::string::npos);
        continue;
      }
      if (!warmup || !ds.guarded) continue;
      // The reference verdicts and repairs of the guarded rows, from the
      // published program's statements.
      auto snapshot = registry.Get(ds.name);
      const core::Program& program = snapshot->program;
      ds.oracle_flags =
          ReferenceFlags(program, ds.dirty, 0, ds.dirty.num_rows());
      ds.oracle_flagged = 0;
      ds.oracle_violations = 0;
      ds.expected_predictions.clear();
      for (guardrail::RowIndex r = 0; r < ds.dirty.num_rows(); ++r) {
        std::vector<guardrail::AttrIndex> targets =
            ReferenceViolatedTargets(program, ds.dirty.GetRow(r));
        ds.oracle_flagged += targets.empty() ? 0 : 1;
        ds.oracle_violations += static_cast<int64_t>(targets.size());
        const bool coerced = std::find(targets.begin(), targets.end(),
                                       ds.label) != targets.end();
        ds.expected_predictions.push_back(
            coerced ? "" : ds.dirty.GetLabel(r, ds.label));
      }
      ds.coerce_changes =
          ReferenceRepairs(program, ds.dirty, core::ErrorPolicy::kCoerce);
      ds.rectify_changes =
          ReferenceRepairs(program, ds.dirty, core::ErrorPolicy::kRectify);
      log->Check(ds.oracle_flagged > 0 && !ds.rectify_changes.empty(),
                 ds.name + ": injected errors are visible to the program");
    }

    // Busy time is the sum of the guard calls' own times: the table copies
    // and the checks between calls are the benchmark's work, not the guard's.
    double validate_seconds = 0.0;
    std::vector<double> validate_ms;
    int64_t rows = 0;
    const std::vector<CellChange> no_changes;
    for (const Dataset& ds : datasets) {
      if (!ds.guarded) continue;
      auto snapshot = registry.Get(ds.name);
      if (!log->Check(snapshot != nullptr, ds.name + ": program is live")) {
        continue;
      }
      core::Guard guard(&snapshot->program);
      if (config.trace) {
        core::BatchVerdict verdict;
        {
          ScopedSpan span(&tracer, "core.kernel");
          snapshot->compiled->EvaluateTable(ds.dirty, 0, ds.dirty.num_rows(),
                                            &verdict);
        }
        int64_t flagged = 0;
        for (int64_t r = 0; r < verdict.num_rows; ++r) {
          flagged += verdict.ViolationCount(r) > 0 ? 1 : 0;
        }
        log->Check(flagged == ds.oracle_flagged,
                   ds.name + ": kernel verdicts match the reference");
      }
      for (core::ErrorPolicy scheme : kSchemes) {
        const std::vector<CellChange>& changes =
            scheme == core::ErrorPolicy::kCoerce    ? ds.coerce_changes
            : scheme == core::ErrorPolicy::kRectify ? ds.rectify_changes
                                                    : no_changes;
        // Coerce counts one repair per violation; rectify one per changed
        // cell.
        const int64_t cells_repaired =
            scheme == core::ErrorPolicy::kCoerce
                ? ds.oracle_violations
                : static_cast<int64_t>(changes.size());
        for (int call = 0; call < kCallsPerScheme; ++call) {
          Table table = ds.dirty;
          log->Attempt("validate");
          StopWatch watch;
          core::GuardOutcome outcome;
          {
            ScopedSpan span(&tracer, GuardSpanName(scheme));
            outcome = guard.ProcessTable(&table, scheme);
          }
          const double ms = watch.ElapsedMillis();
          validate_ms.push_back(ms);
          validate_seconds += ms / 1e3;
          rows += table.num_rows();
          if (outcome.rows_failed > 0) {
            log->Fail("validate", ds.name + ": rows failed evaluation");
            continue;
          }
          log->Check(outcome.flagged == ds.oracle_flags &&
                         outcome.rows_flagged == ds.oracle_flagged,
                     ds.name + ": ProcessTable verdicts match the reference");
          log->Check(outcome.cells_repaired == cells_repaired &&
                         MatchesRepairs(table, ds.dirty, changes),
                     ds.name + ": ProcessTable " +
                         core::ErrorPolicyName(scheme) +
                         " writes exactly the reference repairs");
        }
      }
      // Guarded SQL scan: coerce rewrites every violating row, so the
      // executor's changed-row count must equal the reference count.
      EchoModel model(ds.label);
      guardrail::sql::Executor executor;
      executor.RegisterTable("t", &ds.dirty);
      executor.RegisterModel("m", &model);
      if (config.trace) {
        ScopedSpan span(&tracer, "sql.scan");
        log->Check(executor.Execute(query).ok(), "unguarded scan runs");
      }
      executor.SetGuard(&guard, core::ErrorPolicy::kCoerce);
      log->Attempt("sql");
      StopWatch watch;
      guardrail::Result<guardrail::sql::QueryResult> result = [&] {
        ScopedSpan span(&tracer, "sql.guarded_scan");
        return executor.Execute(query);
      }();
      const double ms = watch.ElapsedMillis();
      validate_ms.push_back(ms);
      validate_seconds += ms / 1e3;
      rows += ds.dirty.num_rows();
      if (!result.ok()) {
        log->Fail("sql", ds.name + ": " + result.status().ToString());
        continue;
      }
      // Coerce nulls every violated dependent before the model sees the
      // row; the echo model then predicts NULL exactly where the label
      // column was violated.
      bool rows_match = result->rows.size() == ds.expected_predictions.size();
      for (size_t r = 0; rows_match && r < result->rows.size(); ++r) {
        const guardrail::sql::SqlValue& pred = result->rows[r].at(0);
        rows_match = ds.expected_predictions[r].empty()
                         ? pred.is_null()
                         : pred.is_string() &&
                               pred.string() == ds.expected_predictions[r];
      }
      log->Check(rows_match &&
                     executor.stats().rows_guard_flagged == ds.oracle_flagged,
                 ds.name + ": guarded SQL scan matches the reference");
    }
    if (warmup) continue;
    ++rounds;
    e2e.AddRound(update_seconds, rows, validate_seconds,
                 std::move(validate_ms));
  }

  if (!config.trace) return e2e.Metrics();

  // Traced run: warm-up round included, so per-round figures divide by all
  // rounds that ran.
  const double all_rounds = static_cast<double>(rounds + 1);
  auto per_round = [&](const char* span) {
    return tracer.TotalSelfSeconds(span) / all_rounds;
  };
  auto rows_per_s = [&](const char* span) {
    const double seconds = tracer.TotalSelfSeconds(span);
    return seconds > 0 ? static_cast<double>(tracer.Count(span)) *
                             static_cast<double>(kChunkRows) / seconds
                       : 0.0;
  };
  std::vector<Metric> out = {
      {"pgm.aux_sample_s", per_round("pgm.aux_sample"), "s"},
      {"pgm.pc_s", per_round("pgm.pc"), "s"},
      {"pgm.ci_tests", static_cast<double>(stages.ci_tests) / all_rounds,
       "count"},
      {"pgm.mec_enumerate_s", per_round("pgm.mec_enumerate"), "s"},
      {"pgm.mec_dags", static_cast<double>(stages.dags) / all_rounds,
       "count"},
      {"core.fill_s", stages.fill_seconds / all_rounds, "s"},
      {"core.fill_cache_hit_ratio",
       cache_lookups > 0 ? static_cast<double>(cache_hits) /
                               static_cast<double>(cache_lookups)
                         : 0.0,
       "ratio"},
      {"analysis.minimize_s", per_round("analysis.minimize"), "s"},
      {"analysis.certify_s", per_round("analysis.certify"), "s"},
      {"analysis.analyze_s", per_round("analysis.analyze"), "s"},
      {"analysis.statements_raw", static_cast<double>(statements_raw), "count"},
      {"analysis.statements_min", static_cast<double>(statements_min), "count"},
      {"serve.publish_s", per_round("serve.publish"), "s"},
      {"core.deserialize_s", per_round("core.deserialize"), "s"},
      {"core.compile_s", per_round("core.compile"), "s"},
      {"core.kernel_rows_per_s", rows_per_s("core.kernel"), "rows/s"},
      {"core.guard_ignore_rows_per_s", rows_per_s("core.guard_ignore"),
       "rows/s"},
      {"core.guard_coerce_rows_per_s", rows_per_s("core.guard_coerce"),
       "rows/s"},
      {"core.guard_rectify_rows_per_s", rows_per_s("core.guard_rectify"),
       "rows/s"},
      {"sql.scan_s", per_round("sql.scan"), "s"},
      {"sql.guarded_scan_s", per_round("sql.guarded_scan"), "s"},
  };
  AppendTraceOverhead(tracer, &out);
  return out;
}

}  // namespace perfbench
