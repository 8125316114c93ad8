// JSON ingestion and machine-readable listing of the experiment registry —
// the scripting surface: `safelight serve` parses POST /v1/jobs bodies
// through spec_from_json(), `safelight list --json` and the serve docs
// endpoint render registry_listing_json().
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/experiment.hpp"
#include "nn/models.hpp"

namespace safelight::core {

namespace {

/// The JSON field names spec_from_json() accepts, in documentation order.
/// One place: the parser, the error message and the listing all read this.
const std::vector<std::string>& spec_field_names() {
  static const std::vector<std::string> kFields = {
      "experiment", "model",       "scale",     "seed_count",
      "base_seed",  "variant",     "robust_variant",
      "l2_strength", "clean_runs", "max_workers", "verbose"};
  return kFields;
}

std::string joined(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

/// Field accessor with the field name stitched into any type-mismatch
/// message ("spec field 'seed_count': ..." instead of a bare offset).
template <typename Fn>
auto read_field(const JsonValue& doc, const char* key, Fn&& fn)
    -> decltype(fn(doc.at(key))) {
  try {
    return fn(doc.at(key));
  } catch (const std::invalid_argument& error) {
    fail_argument("spec field '" + std::string(key) + "': " + error.what());
  }
}

}  // namespace

ExperimentSpec spec_from_json(const std::string& text) {
  JsonValue doc;
  try {
    doc = JsonValue::parse(text);
  } catch (const std::invalid_argument& error) {
    fail_argument(std::string("spec is not valid JSON: ") + error.what());
  }
  require(doc.is_object(),
          "spec must be a JSON object, e.g. "
          "{\"experiment\": \"susceptibility\"}");

  // Unknown fields are rejected loudly — a typo like "seeds" must not
  // silently run with the default seed count (the silent-clamp bug class).
  const auto& known = spec_field_names();
  for (const auto& [key, value] : doc.as_object()) {
    (void)value;
    bool recognized = false;
    for (const std::string& name : known) {
      if (key == name) {
        recognized = true;
        break;
      }
    }
    if (!recognized) {
      fail_argument("spec has unknown field '" + key +
                    "' (supported fields: " + joined(known) + ")");
    }
  }

  const auto& registry = ExperimentRegistry::global();
  require(doc.has("experiment"),
          "spec is missing required field 'experiment' (one of: " +
              joined(registry.names()) + ")");
  const std::string experiment = read_field(
      doc, "experiment", [](const JsonValue& v) { return v.as_string(); });
  // default_spec throws the registered-name list on an unknown experiment.
  ExperimentSpec spec = registry.default_spec(experiment);

  // Absent fields resolve exactly like `safelight run`: CLI override >
  // SAFELIGHT_* env > registry/paper default. This is what makes a serve
  // result byte-identical to a CLI run under the same environment.
  spec.scale = config::scale();
  spec.seed_count = config::seed_count(spec.seed_count);
  spec.base_seed = config::base_seed();

  if (doc.has("model")) {
    spec.model = read_field(doc, "model", [](const JsonValue& v) {
      return nn::model_id_from_string(v.as_string());
    });
  }
  if (doc.has("scale")) {
    spec.scale = read_field(doc, "scale", [](const JsonValue& v) {
      return config::parse_scale(v.as_string());
    });
  }
  if (doc.has("seed_count")) {
    spec.seed_count = read_field(doc, "seed_count", [](const JsonValue& v) {
      return static_cast<std::size_t>(v.as_uint());
    });
  }
  if (doc.has("base_seed")) {
    spec.base_seed = read_field(
        doc, "base_seed", [](const JsonValue& v) { return v.as_uint(); });
  }
  if (doc.has("variant")) {
    spec.variant = read_field(doc, "variant",
                              [](const JsonValue& v) { return v.as_string(); });
  }
  if (doc.has("robust_variant")) {
    spec.robust_variant = read_field(
        doc, "robust_variant", [](const JsonValue& v) { return v.as_string(); });
  }
  if (doc.has("l2_strength")) {
    spec.l2_strength = read_field(doc, "l2_strength", [](const JsonValue& v) {
      const double value = v.as_number();  // cast below is UB past FLT_MAX
      require(std::fabs(value) <= std::numeric_limits<float>::max(),
              "l2_strength must be a finite float");
      return static_cast<float>(value);
    });
  }
  if (doc.has("clean_runs")) {
    spec.clean_runs = read_field(doc, "clean_runs", [](const JsonValue& v) {
      return static_cast<std::size_t>(v.as_uint());
    });
  }
  if (doc.has("max_workers")) {
    spec.max_workers = read_field(doc, "max_workers", [](const JsonValue& v) {
      return static_cast<std::size_t>(v.as_uint());
    });
  }
  if (doc.has("verbose")) {
    spec.verbose = read_field(doc, "verbose",
                              [](const JsonValue& v) { return v.as_bool(); });
  }

  spec.validate();  // seed_count >= 1, known variant names, clean_runs >= 1
  return spec;
}

std::string spec_to_json(const ExperimentSpec& spec) {
  // JSON numbers parse as doubles, so a seed past 2^53 would come back
  // rounded; the other integer fields cannot get that large in practice.
  require(spec.base_seed <= (std::uint64_t{1} << 53),
          "spec_to_json: base_seed must be <= 2^53 to round-trip");
  // The fields below are not shipped, and a worker's default would
  // declare other cells or stores than the caller's spec does: refuse
  // them here instead of failing every task. (cache_dir stays unshipped on
  // purpose: each process places its own stores.)
  const auto unshipped = [](const char* field) {
    fail_argument(std::string("spec_to_json: field '") + field +
                  "' cannot be shipped; leave it at its default");
  };
  if (spec.grid) unshipped("grid");
  if (!spec.campaigns.empty()) unshipped("campaigns");
  if (attack::config_fingerprint(spec.corruption) !=
      attack::config_fingerprint(attack::CorruptionConfig{})) {
    unshipped("corruption");
  }
  if (defense::config_fingerprint(spec.suite) !=
      defense::config_fingerprint(defense::SuiteConfig{})) {
    unshipped("suite");
  }
  JsonWriter json(/*compact=*/true);
  json.begin_object();
  json.key("experiment").value(spec.experiment);
  json.key("model").value(nn::to_string(spec.model));
  json.key("scale").value(to_string(spec.scale));
  json.key("seed_count").value(static_cast<std::uint64_t>(spec.seed_count));
  json.key("base_seed").value(static_cast<std::uint64_t>(spec.base_seed));
  json.key("variant").value(spec.variant);
  json.key("robust_variant").value(spec.robust_variant);
  // %.17g of the float's exact double value: parsing it back to double and
  // narrowing to float reproduces the float bit for bit.
  json.key("l2_strength").exact(static_cast<double>(spec.l2_strength));
  json.key("clean_runs").value(static_cast<std::uint64_t>(spec.clean_runs));
  json.key("max_workers").value(static_cast<std::uint64_t>(spec.max_workers));
  json.key("verbose").value(spec.verbose);
  json.end_object();
  return std::move(json).str();
}

std::string registry_listing_json() {
  const auto& registry = ExperimentRegistry::global();
  JsonWriter json;
  json.begin_object();
  json.key("experiments").begin_array();
  for (const std::string& name : registry.names()) {
    const ExperimentInfo& info = registry.info(name);
    json.begin_object();
    json.key("name").value(info.name);
    json.key("summary").value(info.summary);
    json.key("default_seed_count")
        .value(static_cast<std::uint64_t>(info.default_seed_count));
    json.key("csv_files").begin_array();
    for (const std::string& stem : info.csv_files) json.value(stem);
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.key("spec_fields").begin_array();
  for (const std::string& field : spec_field_names()) json.value(field);
  json.end_array();
  json.end_object();
  return std::move(json).str();  // str() ends with a newline already
}

}  // namespace safelight::core
