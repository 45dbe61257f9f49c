#include "nn/module.h"

namespace apf::nn {

std::vector<Var> Module::parameters() const {
  std::vector<Var> out;
  for (const auto& [name, v] : params_) out.push_back(v);
  for (const auto& [name, child] : children_) {
    auto sub = child->parameters();
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

std::vector<std::pair<std::string, Var>> Module::named_parameters(
    const std::string& prefix) const {
  std::vector<std::pair<std::string, Var>> out;
  for (const auto& [name, v] : params_)
    out.emplace_back(prefix.empty() ? name : prefix + "." + name, v);
  for (const auto& [name, child] : children_) {
    auto sub =
        child->named_parameters(prefix.empty() ? name : prefix + "." + name);
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

std::vector<std::pair<std::string, Tensor>> Module::named_buffers(
    const std::string& prefix) const {
  std::vector<std::pair<std::string, Tensor>> out;
  for (const auto& [name, t] : buffers_)
    out.emplace_back(prefix.empty() ? name : prefix + "." + name, t);
  for (const auto& [name, child] : children_) {
    auto sub =
        child->named_buffers(prefix.empty() ? name : prefix + "." + name);
    out.insert(out.end(), sub.begin(), sub.end());
  }
  return out;
}

void Module::zero_grad() {
  for (Var& v : const_cast<std::vector<Var>&&>(parameters())) v.zero_grad();
}

std::int64_t Module::num_parameters() const {
  std::int64_t n = 0;
  for (const Var& v : parameters()) n += v.numel();
  return n;
}

void Module::set_training(bool on) {
  training_ = on;
  for (auto& [name, child] : children_) child->set_training(on);
}

Var& Module::add_param(std::string name, Tensor init) {
  params_.emplace_back(std::move(name), Var::param(std::move(init)));
  return params_.back().second;
}

Tensor& Module::add_buffer(std::string name, Tensor init) {
  buffers_.emplace_back(std::move(name), std::move(init));
  return buffers_.back().second;
}

void Module::add_child(std::string name, Module& child) {
  children_.emplace_back(std::move(name), &child);
}

}  // namespace apf::nn
