#ifndef SGM_DATA_CSV_STREAM_H_
#define SGM_DATA_CSV_STREAM_H_

#include <string>
#include <vector>

#include "core/status.h"
#include "core/vector.h"
#include "data/stream.h"

namespace sgm {

/// Replays pre-recorded per-site vectors from a CSV file — the adapter for
/// running the protocols on *real* traces (e.g. the original Jester or
/// RCV1 data once locally available) instead of the synthetic stand-ins.
///
/// Format: one row per (cycle, site) pair,
///     cycle,site,x0,x1,...,x{d-1}
/// with a `#`-prefixed optional header. Cycles must be contiguous from 0
/// and every cycle must cover every site exactly once; Load() validates
/// and reports precise row numbers on violations. The replay repeats the
/// final cycle once the trace is exhausted (so monitors can run past the
/// end of the file).
class CsvVectorStream final : public StreamSource {
 public:
  /// Parses `path`. Returns InvalidArgument/NotFound on malformed input.
  static Result<CsvVectorStream> Load(const std::string& path);

  /// Builds directly from in-memory frames (frames[t][i] = site i at t).
  explicit CsvVectorStream(std::vector<std::vector<Vector>> frames,
                           double max_step_norm = 0.0);

  std::string name() const override { return "csv_vector_stream"; }
  int num_sites() const override;
  std::size_t dim() const override;
  void Advance(std::vector<Vector>* local_vectors) override;
  double max_step_norm() const override { return max_step_norm_; }

  long num_cycles() const { return static_cast<long>(frames_.size()); }

 private:
  std::vector<std::vector<Vector>> frames_;
  double max_step_norm_;
  std::size_t next_ = 0;
};

}  // namespace sgm

#endif  // SGM_DATA_CSV_STREAM_H_
