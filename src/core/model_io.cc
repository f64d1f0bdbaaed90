#include "core/model_io.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>

#include "common/csv.h"
#include "nn/serialize.h"

namespace camal::core {
namespace {

constexpr char kManifestName[] = "manifest.csv";

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  std::string text;
  char buf[1 << 14];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

}  // namespace

Status SaveEnsemble(const CamalEnsemble& ensemble,
                    const std::string& directory) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) return Status::IoError("cannot create " + directory);

  CsvWriter manifest(directory + "/" + kManifestName);
  manifest.AddRow(
      {"backbone", "kernel_size", "base_filters", "validation_loss", "file"});
  int index = 0;
  for (const auto& member : ensemble.members()) {
    const std::string file = "member_" + std::to_string(index) + ".bin";
    manifest.AddRow({BackboneKindName(member.model->kind()),
                     std::to_string(member.kernel_size),
                     std::to_string(member.model->base_filters()),
                     std::to_string(member.validation_loss), file});
    CAMAL_RETURN_NOT_OK(
        nn::SaveParameters(member.model.get(), directory + "/" + file));
    ++index;
  }
  return manifest.Write();
}

Result<CamalEnsemble> LoadEnsemble(const std::string& directory) {
  CAMAL_ASSIGN_OR_RETURN(std::string text,
                         ReadFile(directory + "/" + kManifestName));
  CAMAL_ASSIGN_OR_RETURN(auto rows, ParseCsv(text));
  if (rows.empty()) return Status::InvalidArgument("empty manifest");
  std::vector<EnsembleMember> members;
  for (size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.size() != 5) {
      return Status::InvalidArgument("malformed manifest row " +
                                     std::to_string(r));
    }
    const int64_t kernel_size = std::atoll(row[1].c_str());
    const int64_t base_filters = std::atoll(row[2].c_str());
    if (kernel_size <= 0 || base_filters <= 0) {
      return Status::InvalidArgument("invalid member config in manifest");
    }
    // Bound the member by its weight file BEFORE building it: both
    // backbones hold a conv of at least f*f*k float weights, so a row
    // whose f^2*k*4 bytes exceed the file cannot load — and constructing
    // it first would allocate a corrupt row's worth of weights.
    const std::string weights = directory + "/" + row[4];
    std::error_code ec;
    const uintmax_t file_bytes = std::filesystem::file_size(weights, ec);
    if (ec) return Status::IoError("cannot open " + weights);
    int64_t conv_bytes = 0;
    if (__builtin_mul_overflow(base_filters, base_filters, &conv_bytes) ||
        __builtin_mul_overflow(conv_bytes, kernel_size, &conv_bytes) ||
        __builtin_mul_overflow(conv_bytes, int64_t{4}, &conv_bytes) ||
        static_cast<uintmax_t>(conv_bytes) > file_bytes) {
      const std::string why = " needs more weights than " + weights + " holds";
      return Status::InvalidArgument("manifest row " + std::to_string(r) + why);
    }
    Rng rng(0);  // weights are overwritten by LoadParameters
    EnsembleMember member;
    member.kernel_size = kernel_size;
    member.validation_loss = std::atof(row[3].c_str());
    if (row[0] == "inception") {
      InceptionConfig config;
      config.kernel_size = kernel_size;
      config.base_filters = base_filters;
      member.model = std::make_unique<InceptionClassifier>(config, &rng);
    } else if (row[0] == "resnet") {
      ResNetConfig config;
      config.kernel_size = kernel_size;
      config.base_filters = base_filters;
      member.model = std::make_unique<ResNetClassifier>(config, &rng);
    } else {
      return Status::InvalidArgument("unknown backbone '" + row[0] + "'");
    }
    CAMAL_RETURN_NOT_OK(nn::LoadParameters(member.model.get(), weights));
    members.push_back(std::move(member));
  }
  if (members.empty()) {
    return Status::InvalidArgument("manifest lists no members");
  }
  return CamalEnsemble::FromMembers(std::move(members));
}

}  // namespace camal::core
