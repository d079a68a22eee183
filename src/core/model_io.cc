#include "core/model_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <system_error>

#include "util/atomic_file.h"
#include "util/string_util.h"

namespace ceres {

namespace {

// Class label text for the reserved and predicate classes.
std::string ClassName(const ClassMap& classes, const Ontology& ontology,
                      int32_t cls) {
  PredicateId predicate = classes.PredicateOf(cls);
  if (cls == ClassMap::kOtherClass) return "OTHER";
  if (predicate == kNamePredicate) return "NAME";
  return ontology.predicate(predicate).name;
}

Status MalformedLine(int line_number, const std::string& line,
                     const std::string& why) {
  return Status::InvalidArgument(
      StrCat("line ", line_number, ": ", why, " — \"", line, "\""));
}

bool ParseInt(const std::string& field, int64_t* value) {
  auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), *value);
  return ec == std::errc() && ptr == field.data() + field.size();
}

bool ParseDouble(const std::string& field, double* value) {
  char* end = nullptr;
  *value = std::strtod(field.c_str(), &end);
  return end == field.c_str() + field.size() && !field.empty();
}

// The on-disk format version, the only one LoadModel accepts.
constexpr int64_t kModelFormatVersion = 2;

std::string HexId(uint64_t id) {
  char buf[16];
  for (int i = 15; i >= 0; --i) {
    buf[i] = "0123456789abcdef"[id & 0xF];
    id >>= 4;
  }
  return std::string(buf, sizeof(buf));
}

bool ParseHexId(const std::string& field, uint64_t* id) {
  if (field.empty() || field.size() > 16) return false;
  auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), *id, 16);
  return ec == std::errc() && ptr == field.data() + field.size();
}

}  // namespace

Status SaveModel(const TrainedModel& model, const Ontology& ontology,
                 std::ostream* out) {
  if (!model.model.trained()) {
    return Status::FailedPrecondition("model is not trained");
  }
  if (!model.features.frozen()) {
    return Status::FailedPrecondition("feature map is not frozen");
  }
  const int32_t classes = model.model.num_classes();
  const int32_t features = model.model.num_features();
  *out << "#format\n" << kModelFormatVersion << '\n';
  *out << "#model\n" << classes << '\t' << features << '\n';
  *out << "#featureconfig\n"
       << model.feature_config.sibling_window << '\t'
       << (model.feature_config.structural_features ? 1 : 0) << '\t'
       << (model.feature_config.text_features ? 1 : 0) << '\t'
       << model.feature_config.text_feature_levels << '\n';
  *out << "#lexicon\n";
  {
    std::vector<std::string> lexicon(model.frequent_strings.begin(),
                                     model.frequent_strings.end());
    std::sort(lexicon.begin(), lexicon.end());
    for (const std::string& entry : lexicon) {
      if (entry.find('\t') != std::string::npos ||
          entry.find('\n') != std::string::npos) {
        return Status::InvalidArgument(
            StrCat("lexicon entry contains tab/newline: ", entry));
      }
      *out << entry << '\n';
    }
  }
  *out << "#classes\n";
  for (int32_t cls = 0; cls < classes; ++cls) {
    *out << cls << '\t' << ClassName(model.classes, ontology, cls) << '\n';
  }
  *out << "#featureids\n";
  for (int32_t f = 0; f < features; ++f) {
    *out << f << '\t' << HexId(model.features.IdAt(f)) << '\n';
  }
  *out << "#weights\n";
  out->precision(17);
  for (int32_t cls = 0; cls < classes; ++cls) {
    for (int32_t f = 0; f < features; ++f) {
      double w = model.model.WeightAt(cls, f);
      if (w != 0.0) *out << cls << '\t' << f << '\t' << w << '\n';
    }
    double bias = model.model.BiasAt(cls);
    if (bias != 0.0) *out << cls << "\tbias\t" << bias << '\n';
  }
  *out << "#end\n";
  if (!out->good()) return Status::Internal("stream write failed");
  return Status::Ok();
}

Status SaveModelToFile(const TrainedModel& model, const Ontology& ontology,
                       const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::NotFound(StrCat("cannot open for writing: ", path));
  }
  return SaveModel(model, ontology, &out);
}

Result<TrainedModel> LoadModel(std::istream* in, const Ontology& ontology) {
  enum class Section {
    kNone,
    kFormat,
    kModel,
    kFeatureConfig,
    kLexicon,
    kClasses,
    kFeatureIds,   // 64-bit feature ids in hex
    kWeights,
    kEnd
  };
  Section section = Section::kNone;
  int64_t num_classes = -1;
  int64_t num_features = -1;
  int64_t classes_seen = 0;
  bool saw_format = false;
  bool saw_weights_section = false;
  TrainedModel model;
  model.classes = ClassMap(ontology);
  std::vector<double> weights;

  std::string line;
  int line_number = 0;
  while (std::getline(*in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line == "#format") section = Section::kFormat;
      else if (line == "#model") section = Section::kModel;
      else if (line == "#featureconfig") section = Section::kFeatureConfig;
      else if (line == "#lexicon") section = Section::kLexicon;
      else if (line == "#classes") section = Section::kClasses;
      else if (line == "#featureids") section = Section::kFeatureIds;
      else if (line == "#weights") {
        section = Section::kWeights;
        saw_weights_section = true;
      } else if (line == "#end") {
        section = Section::kEnd;
      } else {
        return MalformedLine(line_number, line, "unknown section header");
      }
      continue;
    }
    std::vector<std::string> fields = Split(line, '\t');
    switch (section) {
      case Section::kNone:
        return MalformedLine(line_number, line, "data before any section");
      case Section::kEnd:
        return MalformedLine(line_number, line, "data after #end marker");
      case Section::kFormat: {
        int64_t version = -1;
        if (fields.size() != 1 || !ParseInt(fields[0], &version)) {
          return MalformedLine(line_number, line, "bad format version");
        }
        if (version != kModelFormatVersion) {
          return MalformedLine(
              line_number, line,
              StrCat("unsupported model format version (this build reads ",
                     kModelFormatVersion, " only)"));
        }
        saw_format = true;
        break;
      }
      case Section::kModel: {
        if (fields.size() != 2 || !ParseInt(fields[0], &num_classes) ||
            !ParseInt(fields[1], &num_features) || num_classes < 2 ||
            num_features < 0) {
          return MalformedLine(line_number, line, "bad model header");
        }
        if (num_classes != model.classes.num_classes()) {
          return Status::InvalidArgument(StrCat(
              "model has ", num_classes, " classes but the ontology yields ",
              model.classes.num_classes()));
        }
        weights.assign(static_cast<size_t>(num_classes) *
                           (static_cast<size_t>(num_features) + 1),
                       0.0);
        break;
      }
      case Section::kFeatureConfig: {
        int64_t window = 0;
        int64_t structural = 0;
        int64_t text = 0;
        int64_t levels = 0;
        if (fields.size() != 4 || !ParseInt(fields[0], &window) ||
            !ParseInt(fields[1], &structural) ||
            !ParseInt(fields[2], &text) || !ParseInt(fields[3], &levels)) {
          return MalformedLine(line_number, line, "bad feature config");
        }
        model.feature_config.sibling_window = static_cast<int>(window);
        model.feature_config.structural_features = structural != 0;
        model.feature_config.text_features = text != 0;
        model.feature_config.text_feature_levels = static_cast<int>(levels);
        break;
      }
      case Section::kLexicon: {
        model.frequent_strings.insert(line);
        break;
      }
      case Section::kClasses: {
        int64_t cls = -1;
        if (fields.size() != 2 || !ParseInt(fields[0], &cls) || cls < 0 ||
            cls >= num_classes) {
          return MalformedLine(line_number, line, "bad class line");
        }
        std::string expected =
            ClassName(model.classes, ontology, static_cast<int32_t>(cls));
        if (fields[1] != expected) {
          return Status::InvalidArgument(
              StrCat("class ", cls, " is \"", fields[1],
                     "\" in the file but \"", expected,
                     "\" in the ontology — ontology mismatch"));
        }
        ++classes_seen;
        break;
      }
      case Section::kFeatureIds: {
        int64_t index = -1;
        uint64_t id = 0;
        if (fields.size() != 2 || !ParseInt(fields[0], &index) || index < 0 ||
            index >= num_features || !ParseHexId(fields[1], &id)) {
          return MalformedLine(line_number, line, "bad feature id line");
        }
        int32_t assigned = model.features.GetOrAdd(id);
        if (assigned != static_cast<int32_t>(index)) {
          return MalformedLine(line_number, line,
                               "feature indices must be dense and in order");
        }
        break;
      }
      case Section::kWeights: {
        int64_t cls = -1;
        double value = 0;
        if (fields.size() != 3 || !ParseInt(fields[0], &cls) || cls < 0 ||
            cls >= num_classes || !ParseDouble(fields[2], &value) ||
            !std::isfinite(value)) {
          return MalformedLine(line_number, line, "bad weight line");
        }
        int64_t feature = -1;
        if (fields[1] == "bias") {
          feature = num_features;
        } else if (!ParseInt(fields[1], &feature) || feature < 0 ||
                   feature >= num_features) {
          return MalformedLine(line_number, line, "bad weight index");
        }
        weights[static_cast<size_t>(cls) *
                    (static_cast<size_t>(num_features) + 1) +
                static_cast<size_t>(feature)] = value;
        break;
      }
    }
  }
  if (!saw_format) {
    return Status::InvalidArgument("missing #format section");
  }
  if (num_classes < 0) {
    return Status::InvalidArgument("missing #model section");
  }
  if (model.features.size() != static_cast<int32_t>(num_features)) {
    return Status::InvalidArgument(
        StrCat("file declares ", num_features, " features but lists ",
               model.features.size()));
  }
  if (classes_seen != num_classes) {
    return Status::InvalidArgument(
        StrCat("file declares ", num_classes, " classes but lists ",
               classes_seen, " — truncated file?"));
  }
  if (!saw_weights_section) {
    return Status::InvalidArgument(
        "missing #weights section — truncated file?");
  }
  if (section != Section::kEnd) {
    return Status::InvalidArgument(
        "missing #end marker — file truncated mid-transfer");
  }
  model.features.Freeze();
  Result<LogisticRegression> lr = LogisticRegression::FromWeights(
      static_cast<int32_t>(num_features), static_cast<int32_t>(num_classes),
      std::move(weights));
  if (!lr.ok()) return lr.status();
  model.model = std::move(lr).value();
  return model;
}

Result<TrainedModel> LoadModelFromFile(const std::string& path,
                                       const Ontology& ontology) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound(StrCat("cannot open: ", path));
  }
  return LoadModel(&in, ontology);
}

namespace {

namespace fs = std::filesystem;

fs::path SiteDir(const std::string& root, const std::string& site) {
  return fs::path(root) / site;
}

}  // namespace

std::string ModelVersionPath(const std::string& root, const std::string& site,
                             int64_t version) {
  return (SiteDir(root, site) / StrCat(version, ".model")).string();
}

Result<std::vector<int64_t>> ListModelVersions(const std::string& root,
                                               const std::string& site) {
  fs::path dir = SiteDir(root, site);
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound(StrCat("no model directory: ", dir.string()));
  }
  std::vector<int64_t> versions;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (ec) break;
    if (entry.path().extension() != ".model") continue;
    const std::string stem = entry.path().stem().string();
    int64_t version = -1;
    if (!ParseInt(stem, &version) || version < 0) continue;
    versions.push_back(version);
  }
  if (versions.empty()) {
    return Status::NotFound(StrCat("no model versions for site: ", site));
  }
  std::sort(versions.begin(), versions.end());
  return versions;
}

Result<int64_t> LatestModelVersion(const std::string& root,
                                   const std::string& site) {
  // CURRENT is authoritative when present and well-formed; a missing or
  // garbled pointer (crashed publish) falls back to the newest snapshot.
  fs::path current = SiteDir(root, site) / "CURRENT";
  std::ifstream in(current);
  if (in.is_open()) {
    std::string line;
    int64_t version = -1;
    if (std::getline(in, line) && ParseInt(line, &version) && version >= 0) {
      std::error_code ec;
      if (fs::exists(ModelVersionPath(root, site, version), ec)) {
        return version;
      }
    }
  }
  CERES_ASSIGN_OR_RETURN(std::vector<int64_t> versions,
                         ListModelVersions(root, site));
  return versions.back();
}

Result<int64_t> SaveModelVersion(const std::string& root,
                                 const std::string& site,
                                 const TrainedModel& model,
                                 const Ontology& ontology) {
  fs::path dir = SiteDir(root, site);
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal(
        StrCat("cannot create ", dir.string(), ": ", ec.message()));
  }
  int64_t version = 1;
  Result<int64_t> latest = LatestModelVersion(root, site);
  if (latest.ok()) version = *latest + 1;

  std::ostringstream out;
  CERES_RETURN_IF_ERROR(SaveModel(model, ontology, &out));
  CERES_RETURN_IF_ERROR(WriteFileAtomically(
      ModelVersionPath(root, site, version), out.str(), StatusCode::kNotFound));
  CERES_RETURN_IF_ERROR(WriteFileAtomically((dir / "CURRENT").string(),
                                            StrCat(version, "\n"),
                                            StatusCode::kNotFound));
  return version;
}

Result<TrainedModel> LoadModelVersion(const std::string& root,
                                      const std::string& site, int64_t version,
                                      const Ontology& ontology) {
  const std::string path = ModelVersionPath(root, site, version);
  Result<TrainedModel> model = LoadModelFromFile(path, ontology);
  if (!model.ok()) {
    return PrependContext(model.status(),
                          StrCat("site ", site, " version ", version));
  }
  return model;
}

Result<TrainedModel> LoadLatestModel(const std::string& root,
                                     const std::string& site,
                                     const Ontology& ontology,
                                     int64_t* version) {
  CERES_ASSIGN_OR_RETURN(int64_t latest, LatestModelVersion(root, site));
  CERES_ASSIGN_OR_RETURN(TrainedModel model,
                         LoadModelVersion(root, site, latest, ontology));
  if (version != nullptr) *version = latest;
  return model;
}

}  // namespace ceres
