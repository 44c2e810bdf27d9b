#include "data/csv_stream.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/check.h"

namespace sgm {

namespace {

/// Splits a CSV line on commas; trims nothing (the format is numeric).
std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream stream(line);
  std::string cell;
  while (std::getline(stream, cell, ',')) cells.push_back(cell);
  return cells;
}

Status ParseDouble(const std::string& cell, long row, double* out) {
  char* end = nullptr;
  *out = std::strtod(cell.c_str(), &end);
  if (end == cell.c_str() || *end != '\0') {
    return Status::InvalidArgument("row " + std::to_string(row) +
                                   ": not a number: '" + cell + "'");
  }
  return Status::OK();
}

Status ParseLong(const std::string& cell, long row, long* out) {
  char* end = nullptr;
  *out = std::strtol(cell.c_str(), &end, 10);
  if (end == cell.c_str() || *end != '\0') {
    return Status::InvalidArgument("row " + std::to_string(row) +
                                   ": not an integer: '" + cell + "'");
  }
  return Status::OK();
}

double MaxStepOf(const std::vector<std::vector<Vector>>& frames) {
  double max_step = 0.0;
  for (std::size_t t = 1; t < frames.size(); ++t) {
    for (std::size_t i = 0; i < frames[t].size(); ++i) {
      max_step = std::max(max_step, frames[t][i].DistanceTo(frames[t - 1][i]));
    }
  }
  return max_step > 0.0 ? max_step : 1.0;
}

}  // namespace

CsvVectorStream::CsvVectorStream(std::vector<std::vector<Vector>> frames,
                                 double max_step_norm)
    : frames_(std::move(frames)), max_step_norm_(max_step_norm) {
  SGM_CHECK(!frames_.empty());
  SGM_CHECK(!frames_.front().empty());
  if (max_step_norm_ <= 0.0) max_step_norm_ = MaxStepOf(frames_);
}

Result<CsvVectorStream> CsvVectorStream::Load(const std::string& path) {
  std::ifstream file(path);
  if (!file.is_open()) {
    return Status::NotFound("cannot open CSV file: " + path);
  }

  // (cycle, site) → vector; validated for contiguity afterwards.
  std::vector<std::vector<Vector>> frames;
  std::string line;
  long row = 0;
  std::size_t dim = 0;
  while (std::getline(file, line)) {
    ++row;
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> cells = SplitCsv(line);
    if (cells.size() < 3) {
      return Status::InvalidArgument("row " + std::to_string(row) +
                                     ": expected cycle,site,x0,... columns");
    }
    long cycle = 0, site = 0;
    SGM_RETURN_NOT_OK(ParseLong(cells[0], row, &cycle));
    SGM_RETURN_NOT_OK(ParseLong(cells[1], row, &site));
    if (cycle < 0 || site < 0) {
      return Status::InvalidArgument("row " + std::to_string(row) +
                                     ": negative cycle or site");
    }
    if (dim == 0) {
      dim = cells.size() - 2;
    } else if (cells.size() - 2 != dim) {
      return Status::InvalidArgument("row " + std::to_string(row) +
                                     ": inconsistent dimensionality");
    }
    Vector v(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      double value = 0.0;
      SGM_RETURN_NOT_OK(ParseDouble(cells[j + 2], row, &value));
      v[j] = value;
    }
    if (static_cast<std::size_t>(cycle) >= frames.size()) {
      frames.resize(cycle + 1);
    }
    auto& frame = frames[cycle];
    if (static_cast<std::size_t>(site) >= frame.size()) {
      frame.resize(site + 1);
    }
    if (!frame[site].empty()) {
      return Status::InvalidArgument("row " + std::to_string(row) +
                                     ": duplicate (cycle, site) pair");
    }
    frame[site] = v;
  }
  if (frames.empty()) {
    return Status::InvalidArgument("CSV file holds no data rows: " + path);
  }

  const std::size_t num_sites = frames.front().size();
  for (std::size_t t = 0; t < frames.size(); ++t) {
    if (frames[t].size() != num_sites) {
      return Status::InvalidArgument("cycle " + std::to_string(t) +
                                     " covers " +
                                     std::to_string(frames[t].size()) +
                                     " sites, expected " +
                                     std::to_string(num_sites));
    }
    for (std::size_t i = 0; i < num_sites; ++i) {
      if (frames[t][i].empty()) {
        return Status::InvalidArgument(
            "missing vector for cycle " + std::to_string(t) + ", site " +
            std::to_string(i));
      }
    }
  }
  return CsvVectorStream(std::move(frames));
}

int CsvVectorStream::num_sites() const {
  return static_cast<int>(frames_.front().size());
}

std::size_t CsvVectorStream::dim() const {
  return frames_.front().front().dim();
}

void CsvVectorStream::Advance(std::vector<Vector>* local_vectors) {
  SGM_CHECK(local_vectors != nullptr);
  const std::size_t index = std::min(next_, frames_.size() - 1);
  *local_vectors = frames_[index];
  ++next_;
}

}  // namespace sgm
