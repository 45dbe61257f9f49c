#include "train/task.h"

#include "tensor/image_convert.h"
#include "tensor/ops.h"

namespace apf::train {
namespace {

Tensor concat_targets(const std::vector<const Tensor*>& ts) {
  std::int64_t total = 0;
  for (const Tensor* t : ts) total += t->numel();
  Tensor out({total});
  std::int64_t off = 0;
  for (const Tensor* t : ts) {
    std::copy(t->data(), t->data() + t->numel(), out.data() + off);
    off += t->numel();
  }
  return out;
}

}  // namespace

double Task::eval_loss(const std::vector<std::int64_t>& batch, Rng& rng) {
  nn::EvalGuard guard(model());
  NoGradGuard no_grad;
  return loss(batch, rng).val()[0];
}

// ------------------------------------------------------ BinaryTokenSegTask

BinaryTokenSegTask::BinaryTokenSegTask(
    models::TokenSegModel& model, PatchFn patcher,
    std::function<data::SegSample(std::int64_t)> sampler, float loss_weight)
    : model_(model), patcher_(std::move(patcher)), sampler_(std::move(sampler)),
      w_(loss_weight) {}

const BinaryTokenSegTask::Cached& BinaryTokenSegTask::cached(
    std::int64_t index) {
  auto it = cache_.find(index);
  if (it != cache_.end()) return it->second;
  data::SegSample s = sampler_(index);
  Cached c;
  c.seq = patcher_(s.image);
  c.target = data::binary_target(s.mask);
  return cache_.emplace(index, std::move(c)).first->second;
}

Var BinaryTokenSegTask::loss(const std::vector<std::int64_t>& batch,
                             Rng& rng) {
  std::vector<core::PatchSequence> seqs;
  std::vector<const Tensor*> targets;
  seqs.reserve(batch.size());
  for (std::int64_t ix : batch) {
    const Cached& c = cached(ix);
    seqs.push_back(c.seq);
    targets.push_back(&c.target);
  }
  core::TokenBatch tb = core::make_batch(seqs);
  Var logits = model_.forward(tb, rng);
  return ag::combined_seg_loss(ag::reshape(logits, {-1}),
                               concat_targets(targets), w_);
}

double BinaryTokenSegTask::metric(const std::vector<std::int64_t>& indices) {
  nn::EvalGuard guard(model_);
  NoGradGuard no_grad;
  Rng rng(0);
  double acc = 0.0;
  for (std::int64_t ix : indices) {
    const Cached& c = cached(ix);
    core::TokenBatch tb = core::make_batch({c.seq});
    Var logits = model_.forward(tb, rng);
    acc += dice_binary(logits.val(), c.target);
  }
  return indices.empty() ? 0.0 : acc / static_cast<double>(indices.size());
}

img::Image BinaryTokenSegTask::predict_mask(std::int64_t index) {
  nn::EvalGuard guard(model_);
  NoGradGuard no_grad;
  Rng rng(0);
  const Cached& c = cached(index);
  core::TokenBatch tb = core::make_batch({c.seq});
  Var logits = model_.forward(tb, rng);
  const std::int64_t z = logits.val().size(2);
  img::Image mask(z, z, 1);
  const float* p = logits.val().data();
  for (std::int64_t i = 0; i < z * z; ++i)
    mask.data[static_cast<std::size_t>(i)] = p[i] > 0.f ? 1.f : 0.f;
  return mask;
}

const core::PatchSequence& BinaryTokenSegTask::sequence(std::int64_t index) {
  return cached(index).seq;
}

// ------------------------------------------------------ BinaryImageSegTask

BinaryImageSegTask::BinaryImageSegTask(
    models::ImageSegModel& model,
    std::function<data::SegSample(std::int64_t)> sampler, float loss_weight)
    : model_(model), sampler_(std::move(sampler)), w_(loss_weight) {}

const BinaryImageSegTask::Cached& BinaryImageSegTask::cached(
    std::int64_t index) {
  auto it = cache_.find(index);
  if (it != cache_.end()) return it->second;
  data::SegSample s = sampler_(index);
  Cached c;
  c.image = img::to_chw_tensor(s.image);
  c.target = data::binary_target(s.mask);
  return cache_.emplace(index, std::move(c)).first->second;
}

namespace {

Tensor stack_images(const std::vector<const Tensor*>& imgs) {
  const Shape& s0 = imgs[0]->shape();
  Tensor out({static_cast<std::int64_t>(imgs.size()), s0[0], s0[1], s0[2]});
  const std::int64_t n = imgs[0]->numel();
  for (std::size_t i = 0; i < imgs.size(); ++i)
    std::copy(imgs[i]->data(), imgs[i]->data() + n,
              out.data() + static_cast<std::int64_t>(i) * n);
  return out;
}

}  // namespace

Var BinaryImageSegTask::loss(const std::vector<std::int64_t>& batch,
                             Rng& rng) {
  (void)rng;
  std::vector<const Tensor*> images, targets;
  for (std::int64_t ix : batch) {
    const Cached& c = cached(ix);
    images.push_back(&c.image);
    targets.push_back(&c.target);
  }
  Var logits = model_.forward(Var::constant(stack_images(images)));
  return ag::combined_seg_loss(ag::reshape(logits, {-1}),
                               concat_targets(targets), w_);
}

double BinaryImageSegTask::metric(const std::vector<std::int64_t>& indices) {
  nn::EvalGuard guard(model_);
  NoGradGuard no_grad;
  double acc = 0.0;
  for (std::int64_t ix : indices) {
    const Cached& c = cached(ix);
    Var logits = model_.forward(Var::constant(stack_images({&c.image})));
    acc += dice_binary(logits.val(), c.target);
  }
  return indices.empty() ? 0.0 : acc / static_cast<double>(indices.size());
}

img::Image BinaryImageSegTask::predict_mask(std::int64_t index) {
  nn::EvalGuard guard(model_);
  NoGradGuard no_grad;
  const Cached& c = cached(index);
  Var logits = model_.forward(Var::constant(stack_images({&c.image})));
  const std::int64_t z = logits.val().size(2);
  img::Image mask(z, z, 1);
  const float* p = logits.val().data();
  for (std::int64_t i = 0; i < z * z; ++i)
    mask.data[static_cast<std::size_t>(i)] = p[i] > 0.f ? 1.f : 0.f;
  return mask;
}

// ------------------------------------------------------- MultiTokenSegTask

MultiTokenSegTask::MultiTokenSegTask(
    models::TokenSegModel& model, PatchFn patcher,
    std::function<data::SegSample(std::int64_t)> sampler,
    std::int64_t n_classes, float loss_weight)
    : model_(model), patcher_(std::move(patcher)), sampler_(std::move(sampler)),
      n_classes_(n_classes), w_(loss_weight) {}

const MultiTokenSegTask::Cached& MultiTokenSegTask::cached(std::int64_t index) {
  auto it = cache_.find(index);
  if (it != cache_.end()) return it->second;
  data::SegSample s = sampler_(index);
  Cached c;
  c.seq = patcher_(s.image);
  c.labels = data::label_target(s.mask);
  return cache_.emplace(index, std::move(c)).first->second;
}

Var MultiTokenSegTask::loss(const std::vector<std::int64_t>& batch, Rng& rng) {
  std::vector<core::PatchSequence> seqs;
  std::vector<std::int64_t> labels;
  for (std::int64_t ix : batch) {
    const Cached& c = cached(ix);
    seqs.push_back(c.seq);
    labels.insert(labels.end(), c.labels.begin(), c.labels.end());
  }
  core::TokenBatch tb = core::make_batch(seqs);
  Var logits = model_.forward(tb, rng);  // [B, C, Z, Z]
  Var rows = ag::reshape(ag::permute(logits, {0, 2, 3, 1}), {-1, n_classes_});
  Var ce = ag::cross_entropy_mean(rows, labels);
  Var dice = ag::multiclass_dice_loss(rows, labels, /*ignore_background=*/true);
  return ag::add(ag::scale(ce, w_), ag::scale(dice, 1.f - w_));
}

double MultiTokenSegTask::metric(const std::vector<std::int64_t>& indices) {
  nn::EvalGuard guard(model_);
  NoGradGuard no_grad;
  Rng rng(0);
  double acc = 0.0;
  for (std::int64_t ix : indices) {
    const Cached& c = cached(ix);
    core::TokenBatch tb = core::make_batch({c.seq});
    Var logits = model_.forward(tb, rng);
    Tensor rows =
        ops::permute(logits.val(), {0, 2, 3, 1}).reshape({-1, n_classes_});
    acc += dice_multiclass(ops::argmax_lastdim(rows), c.labels, n_classes_);
  }
  return indices.empty() ? 0.0 : acc / static_cast<double>(indices.size());
}

// ------------------------------------------------------- MultiImageSegTask

MultiImageSegTask::MultiImageSegTask(
    models::ImageSegModel& model,
    std::function<data::SegSample(std::int64_t)> sampler,
    std::int64_t n_classes, float loss_weight)
    : model_(model), sampler_(std::move(sampler)), n_classes_(n_classes),
      w_(loss_weight) {}

const MultiImageSegTask::Cached& MultiImageSegTask::cached(std::int64_t index) {
  auto it = cache_.find(index);
  if (it != cache_.end()) return it->second;
  data::SegSample s = sampler_(index);
  Cached c;
  c.image = img::to_chw_tensor(s.image);
  c.labels = data::label_target(s.mask);
  return cache_.emplace(index, std::move(c)).first->second;
}

Var MultiImageSegTask::loss(const std::vector<std::int64_t>& batch, Rng& rng) {
  (void)rng;
  std::vector<const Tensor*> images;
  std::vector<std::int64_t> labels;
  for (std::int64_t ix : batch) {
    const Cached& c = cached(ix);
    images.push_back(&c.image);
    labels.insert(labels.end(), c.labels.begin(), c.labels.end());
  }
  Var logits = model_.forward(Var::constant(stack_images(images)));
  Var rows = ag::reshape(ag::permute(logits, {0, 2, 3, 1}), {-1, n_classes_});
  Var ce = ag::cross_entropy_mean(rows, labels);
  Var dice = ag::multiclass_dice_loss(rows, labels, true);
  return ag::add(ag::scale(ce, w_), ag::scale(dice, 1.f - w_));
}

double MultiImageSegTask::metric(const std::vector<std::int64_t>& indices) {
  nn::EvalGuard guard(model_);
  NoGradGuard no_grad;
  double acc = 0.0;
  for (std::int64_t ix : indices) {
    const Cached& c = cached(ix);
    Var logits = model_.forward(Var::constant(stack_images({&c.image})));
    Tensor rows =
        ops::permute(logits.val(), {0, 2, 3, 1}).reshape({-1, n_classes_});
    acc += dice_multiclass(ops::argmax_lastdim(rows), c.labels, n_classes_);
  }
  return indices.empty() ? 0.0 : acc / static_cast<double>(indices.size());
}

// ------------------------------------------------- ImageClassificationTask

ImageClassificationTask::ImageClassificationTask(
    models::ImageClsModel& model,
    std::function<data::ClsSample(std::int64_t)> sampler)
    : model_(model), sampler_(std::move(sampler)) {}

const ImageClassificationTask::Cached& ImageClassificationTask::cached(
    std::int64_t index) {
  auto it = cache_.find(index);
  if (it != cache_.end()) return it->second;
  data::ClsSample s = sampler_(index);
  Cached c;
  c.image = img::to_chw_tensor(s.image);
  c.label = s.label;
  return cache_.emplace(index, std::move(c)).first->second;
}

Var ImageClassificationTask::loss(const std::vector<std::int64_t>& batch,
                                  Rng& rng) {
  std::vector<const Tensor*> images;
  std::vector<std::int64_t> labels;
  for (std::int64_t ix : batch) {
    const Cached& c = cached(ix);
    images.push_back(&c.image);
    labels.push_back(c.label);
  }
  Var logits = model_.forward(stack_images(images), rng);
  return ag::cross_entropy_mean(logits, labels);
}

double ImageClassificationTask::metric(
    const std::vector<std::int64_t>& indices) {
  nn::EvalGuard guard(model_);
  NoGradGuard no_grad;
  Rng rng(0);
  double correct = 0.0;
  for (std::int64_t ix : indices) {
    const Cached& c = cached(ix);
    Var logits = model_.forward(stack_images({&c.image}), rng);
    correct += top1_accuracy(logits.val(), {c.label});
  }
  return indices.empty() ? 0.0 : correct / static_cast<double>(indices.size());
}

// ------------------------------------------------------ ClassificationTask

ClassificationTask::ClassificationTask(
    models::VitClassifier& model, PatchFn patcher,
    std::function<data::ClsSample(std::int64_t)> sampler)
    : model_(model), patcher_(std::move(patcher)),
      sampler_(std::move(sampler)) {}

const ClassificationTask::Cached& ClassificationTask::cached(
    std::int64_t index) {
  auto it = cache_.find(index);
  if (it != cache_.end()) return it->second;
  data::ClsSample s = sampler_(index);
  Cached c;
  c.seq = patcher_(s.image);
  c.label = s.label;
  return cache_.emplace(index, std::move(c)).first->second;
}

Var ClassificationTask::loss(const std::vector<std::int64_t>& batch,
                             Rng& rng) {
  std::vector<core::PatchSequence> seqs;
  std::vector<std::int64_t> labels;
  for (std::int64_t ix : batch) {
    const Cached& c = cached(ix);
    seqs.push_back(c.seq);
    labels.push_back(c.label);
  }
  core::TokenBatch tb = core::make_batch(seqs);
  Var logits = model_.forward(tb, rng);
  return ag::cross_entropy_mean(logits, labels);
}

double ClassificationTask::metric(const std::vector<std::int64_t>& indices) {
  nn::EvalGuard guard(model_);
  NoGradGuard no_grad;
  Rng rng(0);
  double correct = 0.0;
  for (std::int64_t ix : indices) {
    const Cached& c = cached(ix);
    core::TokenBatch tb = core::make_batch({c.seq});
    Var logits = model_.forward(tb, rng);
    correct += top1_accuracy(logits.val(), {c.label});
  }
  return indices.empty() ? 0.0 : correct / static_cast<double>(indices.size());
}

}  // namespace apf::train
