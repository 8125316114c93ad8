// Unified experiment API: one spec, one registry, one result shape.
//
// This is the only way to run a SafeLight sweep; the `safelight` CLI (with
// or without `--workers`), the serve daemon and library callers all go
// through it:
//
//   ExperimentSpec      — every setting of one run, validated (no silent
//                         clamps) and serializable into the result metadata.
//   RunContext          — what every run needs besides the spec: the shared
//                         ModelZoo, an optional progress callback, an
//                         optional cooperative cancellation flag and the
//                         evaluate-stage hook (in process by default).
//   ExperimentResult    — the typed report payload plus uniform CSV and
//                         JSON serialization (golden-pinned).
//   ExperimentRegistry  — name -> experiment ("susceptibility",
//                         "mitigation", "robust_compare", "detection",
//                         "campaign"). An experiment is its declared cell
//                         sweeps plus an assembly of the swept cells into
//                         its report; the registry is the only code that
//                         runs an experiment's sweeps (resolve -> sweeps ->
//                         prepare each -> one evaluate hand-off of all
//                         pending cells -> collect each -> assemble;
//                         core/pipeline.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "attacks/campaign.hpp"
#include "attacks/corruption.hpp"
#include "common/error.hpp"
#include "core/campaign_eval.hpp"
#include "core/detection.hpp"
#include "core/mitigation.hpp"
#include "core/robust_compare.hpp"
#include "core/susceptibility.hpp"
#include "core/zoo.hpp"
#include "defense/suite.hpp"

namespace safelight::core {

/// One spec describes one (experiment, model, scale) run completely; each
/// experiment reads the fields it needs and ignores the rest (the unused
/// fields keep their defaults and do not affect caching).
struct ExperimentSpec {
  /// Registry key: "susceptibility", "mitigation", "robust_compare",
  /// "detection" or "campaign".
  std::string experiment;
  nn::ModelId model = nn::ModelId::kCnn1;
  Scale scale = Scale::kDefault;

  /// Placements per grid cell. 0 means "not set" and is rejected by
  /// validate(); start from ExperimentRegistry::default_spec() to get the
  /// experiment's paper default (10 / 3 / 5 / 3 / 1).
  std::size_t seed_count = 0;
  std::uint64_t base_seed = 1000;

  /// Deployed variant (detection / campaign sweeps), resolved through
  /// variant_by_name(variant, l2_strength).
  std::string variant = "Original";
  /// robust_compare: pinned robust variant; empty selects via mitigation.
  std::string robust_variant;
  float l2_strength = kDefaultL2Strength;
  /// detection: clean deployments forming the ROC negative class.
  std::size_t clean_runs = 10;

  /// Result-store directory; empty disables persistence.
  std::string cache_dir;
  std::size_t max_workers = 0;
  bool verbose = false;

  attack::CorruptionConfig corruption{};
  defense::SuiteConfig suite{};

  /// detection: explicit scenario grid override (paper SIV grid when
  /// absent).
  std::optional<std::vector<attack::AttackScenario>> grid;
  /// campaign: schedules to run (attack::standard_campaigns() when empty).
  std::vector<attack::CampaignSchedule> campaigns;

  /// The setup this spec resolves to: experiment_setup(model, scale).
  ExperimentSetup resolved_setup() const;

  /// The deployed variant this spec resolves to:
  /// variant_by_name(variant, l2_strength).
  VariantSpec resolved_variant() const;

  /// Field-level validation with actionable messages: rejects
  /// seed_count == 0, unknown variant names, clean_runs == 0 and (through
  /// the registry) unknown experiment names. Does not touch the registry,
  /// so library callers can validate without one.
  void validate() const;
};

/// Thrown by RunContext::throw_if_cancelled() when the caller's
/// cancellation flag is set; sweeps abort between coarse work units.
class ExperimentCancelled : public std::runtime_error {
 public:
  explicit ExperimentCancelled(const std::string& experiment)
      : std::runtime_error("safelight: experiment '" + experiment +
                           "' cancelled") {}
};

struct PreparedSweep;  // core/pipeline.hpp

/// Everything an experiment run needs besides the spec. The zoo is shared
/// across experiments of one session (run-all trains each variant exactly
/// once); progress and cancellation are optional hooks, and evaluate is the
/// evaluate stage, in process unless replaced.
class RunContext {
 public:
  using ProgressFn = std::function<void(const std::string& stage)>;
  using EvaluateFn = std::function<void(const ExperimentSpec& resolved,
                                        const ExperimentSetup& setup,
                                        const std::vector<PreparedSweep>&)>;

  /// `evaluate` starts as the in-process engine on this context
  /// (core::evaluate_sweeps), which is why a context is not copyable.
  explicit RunContext(ModelZoo& zoo);
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  ModelZoo& zoo() const { return *zoo_; }

  /// Invoked at coarse stage boundaries ("train variant", "sweep grid").
  ProgressFn progress;
  /// When non-null, experiments poll it between coarse work units and
  /// abort via ExperimentCancelled.
  const std::atomic<bool>* cancel = nullptr;
  /// The evaluate stage of every registry run, called once per run: fills
  /// every pending key of all the run's prepared sweeps (declared from
  /// `resolved`, PreparedSweep::index naming each; `setup` is
  /// resolved.resolved_setup()) into their stores. The in-process engine
  /// by default; the dist fleet under `--workers`.
  EvaluateFn evaluate;

  void note(const std::string& stage) const {
    if (progress) progress(stage);
  }
  bool cancelled() const { return cancel != nullptr && cancel->load(); }
  void throw_if_cancelled(const std::string& experiment) const {
    if (cancelled()) throw ExperimentCancelled(experiment);
  }

 private:
  ModelZoo* zoo_;
};

/// One logical CSV output of an experiment: the file stem (e.g.
/// "fig7_susceptibility"), its header, and this run's rows. Multi-model
/// sessions append rows of consecutive runs under one header.
struct CsvDocument {
  std::string file_stem;
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

/// Typed outcome of one registry run: the experiment's report plus uniform
/// serialization. wall_seconds is measured by the registry around the run.
struct ExperimentResult {
  std::string experiment;
  ExperimentSpec spec;
  double wall_seconds = 0.0;

  using Payload =
      std::variant<SusceptibilityReport, MitigationReport,
                   RobustComparisonReport, DetectionReport,
                   CampaignSweepReport>;
  Payload payload;

  /// The typed report; throws std::invalid_argument naming the experiment
  /// when T does not match the payload.
  template <typename T>
  const T& as() const {
    const T* typed = std::get_if<T>(&payload);
    if (typed == nullptr) {
      fail_argument("ExperimentResult: '" + experiment +
                    "' does not carry the requested report type");
    }
    return *typed;
  }

  /// CSV serialization (golden-pinned at tiny scale).
  std::vector<CsvDocument> to_csv() const;

  /// Deterministic JSON document (no wall-clock or cache-hit fields), also
  /// golden-pinned. Covers the spec header plus the full payload.
  std::string to_json() const;
};

struct CellSweep;  // core/pipeline.hpp
struct SweptCell;  // core/pipeline.hpp

/// One registered experiment: the cell sweeps it evaluates, declared as
/// data, plus the assembly of its report from the swept cells. The
/// registry runs the sweeps; dist workers rebuild the same declarations
/// from the shipped spec, so every path evaluates exactly the same cells.
struct ExperimentInfo {
  std::string name;
  /// One-line summary shown by `safelight list`.
  std::string summary;
  /// Paper-default placements per grid cell (seeds).
  std::size_t default_seed_count = 1;
  /// File stems of the CSVs to_csv() emits, in emission order.
  std::vector<std::string> csv_files;
  /// The cell sweeps (core/pipeline.hpp) a resolved spec evaluates.
  using SweepsFn =
      std::function<std::vector<CellSweep>(const ExperimentSpec&)>;
  SweepsFn sweeps;
  /// Builds the report: swept[s] holds the cells of sweeps[s] in
  /// declaration order.
  using AssembleFn = std::function<ExperimentResult::Payload(
      const ExperimentSpec&, const std::vector<CellSweep>&,
      const std::vector<std::vector<SweptCell>>&)>;
  AssembleFn assemble;
  /// Optional: completes a spec before its sweeps are declared; it may run
  /// other experiments through the registry.
  using ResolveFn =
      std::function<ExperimentSpec(const ExperimentSpec&, RunContext&)>;
  ResolveFn resolve = nullptr;
};

/// Name -> experiment registry. The five paper sweeps are registered in the
/// global() instance; additional experiments can be added at startup.
class ExperimentRegistry {
 public:
  /// Process-wide registry, pre-populated with the five built-ins in
  /// figure order: susceptibility, mitigation, robust_compare, detection,
  /// campaign.
  static ExperimentRegistry& global();

  /// Registers an experiment; throws when the name is empty, already
  /// taken, or `sweeps` or `assemble` is missing.
  void add(ExperimentInfo info);

  /// Registered names in registration order.
  std::vector<std::string> names() const;
  bool contains(const std::string& name) const;

  /// Lookup; throws std::invalid_argument listing the registered names
  /// when `name` is unknown.
  const ExperimentInfo& info(const std::string& name) const;

  /// A spec pre-filled with the experiment's defaults (name, paper seed
  /// count); callers then set model/scale/cache and tweak knobs.
  ExperimentSpec default_spec(const std::string& name) const;

  /// Validates the spec (including the experiment name), resolves it,
  /// prepares each declared sweep (a cell id pending in an earlier sweep of
  /// the same store is dropped from the later one's pending list), hands
  /// every pending cell to context.evaluate in one call, collects each
  /// sweep and assembles the report, stamping wall_seconds over the whole
  /// run. result.spec is the caller's spec.
  ExperimentResult run(const ExperimentSpec& spec, RunContext& context) const;

 private:
  std::vector<ExperimentInfo> experiments_;  // registration order
};

// ---------------------------------------------------------------------------
// JSON ingestion / listing (src/core/experiment_json.cpp) — the scripting
// surface shared by `safelight serve` (POST /v1/jobs bodies) and
// `safelight list --json`.
// ---------------------------------------------------------------------------

/// Parses an ExperimentSpec from a JSON object, e.g.
/// {"experiment":"susceptibility","model":"cnn1","seed_count":3}.
///
/// Field names match ExperimentResult::to_json()'s spec header (experiment,
/// model, scale, seed_count, base_seed) plus the scalar knobs (variant,
/// robust_variant, l2_strength, clean_runs, max_workers, verbose). Absent
/// fields resolve exactly like `safelight run`: registry defaults, then the
/// SAFELIGHT_* env / CLI-override chain — so a spec submitted over HTTP to a
/// daemon started under the same environment produces a byte-identical
/// result document. cache_dir is deliberately NOT accepted: the caller
/// (serve's run_job, the CLI) owns store placement.
///
/// Strict by design: a malformed document, an unknown field, a type
/// mismatch, an unknown experiment/model/scale/variant name or an invalid
/// value all throw std::invalid_argument with an actionable message (the
/// CLI's exit-2 convention; serve answers 400 with the same text).
ExperimentSpec spec_from_json(const std::string& text);

/// One-line JSON of every field spec_from_json() accepts, written
/// explicitly so a parse in another process (a dist worker) resolves
/// nothing from its environment; spec_from_json reproduces them bit for
/// bit. Throws std::invalid_argument when base_seed exceeds 2^53, or
/// naming the field when one it cannot ship is off its default (grid set,
/// campaigns non-empty, a corruption or suite config whose fingerprint is
/// not the default's): a worker would declare other cells or stores.
/// cache_dir is never shipped.
std::string spec_to_json(const ExperimentSpec& spec);

/// Machine-readable registry listing (`safelight list --json`): every
/// registered experiment's name, summary, default seed count and CSV file
/// stems, plus the spec_from_json() field names under "spec_fields".
/// Deterministic pretty JSON, trailing newline included.
std::string registry_listing_json();

// The registry's sweeps, assemble and resolve functions of the five
// built-in experiments. Defined next to each sweep's internals.
ExperimentResult::Payload assemble_susceptibility(
    const ExperimentSpec& spec, const std::vector<CellSweep>& sweeps,
    const std::vector<std::vector<SweptCell>>& swept);
ExperimentResult::Payload assemble_mitigation(
    const ExperimentSpec& spec, const std::vector<CellSweep>& sweeps,
    const std::vector<std::vector<SweptCell>>& swept);
ExperimentResult::Payload assemble_robust_compare(
    const ExperimentSpec& spec, const std::vector<CellSweep>& sweeps,
    const std::vector<std::vector<SweptCell>>& swept);
ExperimentResult::Payload assemble_detection(
    const ExperimentSpec& spec, const std::vector<CellSweep>& sweeps,
    const std::vector<std::vector<SweptCell>>& swept);
ExperimentResult::Payload assemble_campaign(
    const ExperimentSpec& spec, const std::vector<CellSweep>& sweeps,
    const std::vector<std::vector<SweptCell>>& swept);

/// Pins spec.robust_variant, when empty, to the best robust variant of a
/// mitigation run of the same model through the registry with `context`.
ExperimentSpec resolve_robust_compare(const ExperimentSpec& spec,
                                      RunContext& context);

std::vector<CellSweep> susceptibility_sweeps(const ExperimentSpec& spec);
std::vector<CellSweep> mitigation_sweeps(const ExperimentSpec& spec);
/// Empty unless spec.robust_variant is pinned (resolve_robust_compare).
std::vector<CellSweep> robust_compare_sweeps(const ExperimentSpec& spec);
std::vector<CellSweep> detection_sweeps(const ExperimentSpec& spec);
std::vector<CellSweep> campaign_sweeps(const ExperimentSpec& spec);

}  // namespace safelight::core
