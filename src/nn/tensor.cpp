#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace safelight::nn {

std::size_t shape_numel(const Shape& shape) {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {
  for (std::size_t d : shape_) {
    require(d > 0, "Tensor: zero-sized dimension in " + shape_to_string(shape_));
  }
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  require(data_.size() == shape_numel(shape_),
          "Tensor: data size " + std::to_string(data_.size()) +
              " does not match shape " + shape_to_string(shape_));
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::from(std::initializer_list<float> values) {
  return Tensor({values.size()}, std::vector<float>(values));
}

std::size_t Tensor::dim(std::size_t i) const {
  if (i >= shape_.size()) {
    throw std::out_of_range("Tensor::dim: index " + std::to_string(i) +
                            " out of rank " + std::to_string(shape_.size()));
  }
  return shape_[i];
}

namespace {

std::size_t flatten_index(const Shape& shape,
                          std::initializer_list<std::size_t> idx) {
  require(idx.size() == shape.size(),
          "Tensor::at: rank mismatch (got " + std::to_string(idx.size()) +
              " indices for shape " + shape_to_string(shape) + ")");
  std::size_t flat = 0;
  std::size_t axis = 0;
  for (std::size_t i : idx) {
    if (i >= shape[axis]) {
      throw std::out_of_range("Tensor::at: index " + std::to_string(i) +
                              " out of bound " + std::to_string(shape[axis]) +
                              " on axis " + std::to_string(axis));
    }
    flat = flat * shape[axis] + i;
    ++axis;
  }
  return flat;
}

}  // namespace

float& Tensor::at(std::initializer_list<std::size_t> idx) {
  return data_[flatten_index(shape_, idx)];
}

float Tensor::at(std::initializer_list<std::size_t> idx) const {
  return data_[flatten_index(shape_, idx)];
}

Tensor Tensor::reshaped(Shape new_shape) const {
  Tensor copy = *this;
  copy.reshape_inplace(std::move(new_shape));
  return copy;
}

void Tensor::reshape_inplace(Shape new_shape) {
  require(shape_numel(new_shape) == data_.size(),
          "Tensor::reshape: numel mismatch " + shape_to_string(shape_) +
              " -> " + shape_to_string(new_shape));
  shape_ = std::move(new_shape);
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::check_same_shape(const Tensor& rhs, const char* op) const {
  require(shape_ == rhs.shape_,
          std::string("Tensor::") + op + ": shape mismatch " +
              shape_to_string(shape_) + " vs " + shape_to_string(rhs.shape_));
}

Tensor& Tensor::operator+=(const Tensor& rhs) {
  check_same_shape(rhs, "operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& rhs) {
  check_same_shape(rhs, "operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float scalar) {
  for (float& v : data_) v *= scalar;
  return *this;
}

Tensor& Tensor::add_scaled(const Tensor& rhs, float scale) {
  check_same_shape(rhs, "add_scaled");
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * rhs.data_[i];
  }
  return *this;
}

float Tensor::sum() const {
  double acc = 0.0;
  for (float v : data_) acc += v;
  return static_cast<float>(acc);
}

float Tensor::min() const {
  require(!data_.empty(), "Tensor::min: empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  require(!data_.empty(), "Tensor::max: empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::abs_max() const {
  float best = 0.0f;
  for (float v : data_) best = std::max(best, std::abs(v));
  return best;
}

double Tensor::sum_squares() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return acc;
}

bool Tensor::all_finite() const {
  return std::all_of(data_.begin(), data_.end(),
                     [](float v) { return std::isfinite(v); });
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  require(a.shape() == b.shape(), "max_abs_diff: shape mismatch");
  float best = 0.0f;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    best = std::max(best, std::abs(a[i] - b[i]));
  }
  return best;
}

}  // namespace safelight::nn
