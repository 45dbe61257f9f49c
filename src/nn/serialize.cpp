#include "nn/serialize.h"

#include <cstdint>
#include <fstream>
#include <vector>

namespace apf::nn {
namespace {

constexpr std::uint64_t kMagic = 0x4150465f434b5032ULL;    // "APF_CKP2"
constexpr std::uint64_t kMagicV1 = 0x4150465f434b5054ULL;  // "APF_CKPT"

void write_u64(std::ofstream& f, std::uint64_t v) {
  f.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::ifstream& f) {
  std::uint64_t v = 0;
  f.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

void write_string(std::ofstream& f, const std::string& s) {
  write_u64(f, s.size());
  f.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::ifstream& f) {
  const std::uint64_t n = read_u64(f);
  APF_CHECK(n < (1u << 20), "checkpoint: implausible string length " << n);
  std::string s(n, '\0');
  f.read(s.data(), static_cast<std::streamsize>(n));
  return s;
}

/// One section: count, then name / rank / dims / float32 data per tensor.
void write_section(std::ofstream& f,
                   const std::vector<std::pair<std::string, Tensor>>& named) {
  write_u64(f, named.size());
  for (const auto& [name, t] : named) {
    write_string(f, name);
    write_u64(f, static_cast<std::uint64_t>(t.ndim()));
    for (std::int64_t d = 0; d < t.ndim(); ++d)
      write_u64(f, static_cast<std::uint64_t>(t.size(d)));
    f.write(reinterpret_cast<const char*>(t.data()),
            static_cast<std::streamsize>(t.numel() * sizeof(float)));
  }
}

/// Reads a section written by write_section into fresh tensors, checking
/// the count, every name and every shape against `named`.
std::vector<Tensor> read_section(
    std::ifstream& f, const std::vector<std::pair<std::string, Tensor>>& named,
    const char* what) {
  const std::uint64_t count = read_u64(f);
  APF_CHECK(f.good(), "load_parameters: truncated before the " << what
                                                               << " count");
  APF_CHECK(count == named.size(), "load_parameters: checkpoint has "
                                       << count << " " << what
                                       << ", module has " << named.size());
  std::vector<Tensor> staged(named.size());
  for (std::size_t i = 0; i < count; ++i) {
    const std::string name = read_string(f);
    APF_CHECK(name == named[i].first, "load_parameters: "
                                          << what << " " << i << " is '"
                                          << name << "', expected '"
                                          << named[i].first << "'");
    const std::uint64_t ndim = read_u64(f);
    APF_CHECK(ndim <= 8, "load_parameters: implausible rank " << ndim);
    Shape shape(ndim);
    for (std::uint64_t d = 0; d < ndim; ++d)
      shape[d] = static_cast<std::int64_t>(read_u64(f));
    APF_CHECK(shape == named[i].second.shape(),
              "load_parameters: '" << name << "' shape " << shape_str(shape)
                                   << " vs module "
                                   << named[i].second.str());
    Tensor t(shape);
    f.read(reinterpret_cast<char*>(t.data()),
           static_cast<std::streamsize>(t.numel() * sizeof(float)));
    APF_CHECK(f.good(), "load_parameters: truncated at '" << name << "'");
    staged[i] = t;
  }
  return staged;
}

std::vector<std::pair<std::string, Tensor>> parameter_values(
    const Module& module) {
  std::vector<std::pair<std::string, Tensor>> out;
  for (const auto& [name, var] : module.named_parameters())
    out.emplace_back(name, var.val());
  return out;
}

}  // namespace

void save_parameters(const Module& module, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  APF_CHECK(f.good(), "save_parameters: cannot open " << path);
  write_u64(f, kMagic);
  write_section(f, parameter_values(module));
  write_section(f, module.named_buffers());
  APF_CHECK(f.good(), "save_parameters: write failed for " << path);
}

void load_parameters(Module& module, const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  APF_CHECK(f.good(), "load_parameters: cannot open " << path);
  const std::uint64_t magic = read_u64(f);
  APF_CHECK(magic != kMagicV1,
            "load_parameters: "
                << path
                << " is a checkpoint from before buffers were saved; it has "
                   "no batch-norm running statistics, so re-save it");
  APF_CHECK(magic == kMagic, "load_parameters: bad magic in " << path);
  // Stage everything first so a malformed file cannot half-update.
  const auto params = parameter_values(module);
  const auto buffers = module.named_buffers();
  const std::vector<Tensor> staged_params =
      read_section(f, params, "parameters");
  const std::vector<Tensor> staged_buffers =
      read_section(f, buffers, "buffers");
  for (std::size_t i = 0; i < params.size(); ++i) {
    Tensor t = params[i].second;
    t.copy_from(staged_params[i]);
  }
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    Tensor t = buffers[i].second;
    t.copy_from(staged_buffers[i]);
  }
}

}  // namespace apf::nn
