#include "nn/sequential.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace safelight::nn {

Layer& Sequential::add(LayerPtr layer) {
  require(layer != nullptr, "Sequential::add: null layer");
  layers_.push_back(std::move(layer));
  return *layers_.back();
}

Tensor Sequential::forward(const Tensor& x, bool train) {
  return forward_from(0, x, train);
}

Tensor Sequential::forward_from(std::size_t begin_layer, const Tensor& h,
                                bool train) {
  require(begin_layer <= layers_.size(),
          "Sequential::forward_from: layer index out of range");
  Tensor cur = h;
  for (std::size_t i = begin_layer; i < layers_.size(); ++i) {
    cur = layers_[i]->forward(cur, train);
  }
  return cur;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void Sequential::backward_params(const Tensor& grad_out) {
  if (layers_.empty()) return;
  Tensor g = grad_out;
  for (std::size_t i = layers_.size() - 1; i > 0; --i) {
    g = layers_[i]->backward(g);
  }
  layers_.front()->backward_params(g);
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> out;
  for (auto& layer : layers_) {
    for (Param* p : layer->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Sequential::state_tensors() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (Tensor* t : layer->state_tensors()) out.push_back(t);
  }
  return out;
}

std::string Sequential::name() const {
  return "Sequential(" + std::to_string(layers_.size()) + " layers)";
}

Shape Sequential::output_shape(const Shape& in) const {
  Shape s = in;
  for (const auto& layer : layers_) s = layer->output_shape(s);
  return s;
}

Layer& Sequential::layer(std::size_t i) {
  require(i < layers_.size(), "Sequential::layer: index out of range");
  return *layers_[i];
}

const Layer& Sequential::layer(std::size_t i) const {
  require(i < layers_.size(), "Sequential::layer: index out of range");
  return *layers_[i];
}

std::size_t Sequential::num_parameters() {
  std::size_t total = 0;
  for (Param* p : params()) total += p->value.numel();
  return total;
}

std::vector<int> Sequential::predict(const Tensor& x) {
  Tensor logits = forward(x, /*train=*/false);
  require(logits.rank() == 2, "Sequential::predict: output must be [N,C]");
  const std::size_t batch = logits.dim(0), classes = logits.dim(1);
  std::vector<int> out(batch);
  for (std::size_t n = 0; n < batch; ++n) {
    const float* row = logits.data() + n * classes;
    out[n] = static_cast<int>(
        std::max_element(row, row + classes) - row);
  }
  return out;
}

double Sequential::accuracy(const Tensor& x, const std::vector<int>& labels) {
  require(x.dim(0) == labels.size(),
          "Sequential::accuracy: batch/label count mismatch");
  const std::vector<int> preds = predict(x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(preds.size());
}

std::string Sequential::summary() {
  std::ostringstream os;
  os << "Sequential with " << layers_.size() << " layers, "
     << num_parameters() << " parameters\n";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    os << "  [" << i << "] " << layers_[i]->name() << '\n';
  }
  return os.str();
}

}  // namespace safelight::nn
