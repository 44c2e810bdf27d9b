#include "core/vector.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace sgm {

Vector& Vector::operator+=(const Vector& rhs) {
  SGM_CHECK(dim() == rhs.dim());
  for (std::size_t i = 0; i < size_; ++i) begin_[i] += rhs.begin_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  SGM_CHECK(dim() == rhs.dim());
  for (std::size_t i = 0; i < size_; ++i) begin_[i] -= rhs.begin_[i];
  return *this;
}

Vector& Vector::operator*=(double scalar) {
  for (std::size_t i = 0; i < size_; ++i) begin_[i] *= scalar;
  return *this;
}

Vector& Vector::operator/=(double scalar) {
  SGM_CHECK(scalar != 0.0);
  for (std::size_t i = 0; i < size_; ++i) begin_[i] /= scalar;
  return *this;
}

Vector& Vector::Axpy(double scalar, const Vector& rhs) {
  SGM_CHECK(dim() == rhs.dim());
  for (std::size_t i = 0; i < size_; ++i) {
    begin_[i] += scalar * rhs.begin_[i];
  }
  return *this;
}

double Vector::Norm() const { return std::sqrt(SquaredNorm()); }

double Vector::SquaredNorm() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < size_; ++i) sum += begin_[i] * begin_[i];
  return sum;
}

double Vector::L1Norm() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < size_; ++i) sum += std::abs(begin_[i]);
  return sum;
}

double Vector::LInfNorm() const {
  double best = 0.0;
  for (std::size_t i = 0; i < size_; ++i) {
    best = std::max(best, std::abs(begin_[i]));
  }
  return best;
}

double Vector::Sum() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < size_; ++i) sum += begin_[i];
  return sum;
}

double Vector::Dot(const Vector& rhs) const {
  SGM_CHECK(dim() == rhs.dim());
  double sum = 0.0;
  for (std::size_t i = 0; i < size_; ++i) {
    sum += begin_[i] * rhs.begin_[i];
  }
  return sum;
}

double Vector::DistanceTo(const Vector& rhs) const {
  SGM_CHECK(dim() == rhs.dim());
  double sum = 0.0;
  for (std::size_t i = 0; i < size_; ++i) {
    const double diff = begin_[i] - rhs.begin_[i];
    sum += diff * diff;
  }
  return std::sqrt(sum);
}

void Vector::SetZero() { std::fill_n(begin_, size_, 0.0); }

std::string Vector::ToString() const {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < size_; ++i) {
    std::snprintf(buf, sizeof(buf), "%.6g", begin_[i]);
    if (i > 0) out += ", ";
    out += buf;
  }
  out += "]";
  return out;
}

Vector operator+(Vector lhs, const Vector& rhs) {
  lhs += rhs;
  return lhs;
}

Vector operator-(Vector lhs, const Vector& rhs) {
  lhs -= rhs;
  return lhs;
}

Vector operator*(Vector lhs, double scalar) {
  lhs *= scalar;
  return lhs;
}

Vector operator*(double scalar, Vector rhs) {
  rhs *= scalar;
  return rhs;
}

Vector operator/(Vector lhs, double scalar) {
  lhs /= scalar;
  return lhs;
}

Vector Mean(const std::vector<Vector>& vectors) {
  Vector sum = Sum(vectors);
  sum /= static_cast<double>(vectors.size());
  return sum;
}

Vector Sum(const std::vector<Vector>& vectors) {
  SGM_CHECK(!vectors.empty());
  Vector sum(vectors.front().dim());
  for (const Vector& v : vectors) sum += v;
  return sum;
}

}  // namespace sgm
