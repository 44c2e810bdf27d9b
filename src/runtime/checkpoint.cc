#include "runtime/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "core/check.h"
#include "core/crc32c.h"

namespace sgm {

namespace {

template <typename T>
void Append(std::vector<std::uint8_t>* out, T value) {
  const std::size_t offset = out->size();
  out->resize(offset + sizeof(T));
  std::memcpy(out->data() + offset, &value, sizeof(T));
}

template <typename T>
bool Read(const std::vector<std::uint8_t>& in, std::size_t* offset, T* out) {
  if (*offset + sizeof(T) > in.size()) return false;
  std::memcpy(out, in.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return true;
}

void AppendVector(std::vector<std::uint8_t>* out, const Vector& v) {
  Append<std::uint32_t>(out, static_cast<std::uint32_t>(v.dim()));
  for (std::size_t i = 0; i < v.dim(); ++i) Append<double>(out, v[i]);
}

/// Sanity ceiling on any length field in a checkpoint artifact: a corrupt
/// length must fail fast, not drive a multi-gigabyte allocation.
constexpr std::uint32_t kMaxCheckpointElements = 1u << 22;

bool ReadVector(const std::vector<std::uint8_t>& in, std::size_t* offset,
                Vector* out) {
  std::uint32_t dim = 0;
  if (!Read(in, offset, &dim) || dim > kMaxCheckpointElements) return false;
  Vector coords(dim);
  for (std::uint32_t i = 0; i < dim; ++i) {
    if (!Read(in, offset, &coords[i])) return false;
  }
  *out = std::move(coords);
  return true;
}

constexpr std::uint8_t kMaxFdState =
    static_cast<std::uint8_t>(FailureDetector::State::kLagging);
constexpr std::uint8_t kMaxWalKind =
    static_cast<std::uint8_t>(WalRecord::Kind::kRejoinGrant);

void EncodeSnapshotBody(const CoordinatorCheckpoint& state,
                        std::vector<std::uint8_t>* out) {
  Append<std::int64_t>(out, state.epoch);
  Append<std::int64_t>(out, static_cast<std::int64_t>(state.cycle));
  Append<std::uint8_t>(out, state.believes_above ? 1 : 0);
  Append<double>(out, state.epsilon_t);
  Append<double>(out, state.threshold);
  Append<double>(out, state.delta);
  Append<double>(out, state.max_step_norm);
  Append<std::int64_t>(out, static_cast<std::int64_t>(state.cycles_since_sync));
  Append<std::int64_t>(out, static_cast<std::int64_t>(state.full_syncs));
  Append<std::int64_t>(out,
                       static_cast<std::int64_t>(state.partial_resolutions));
  Append<std::int64_t>(out, static_cast<std::int64_t>(state.degraded_syncs));
  Append<std::int64_t>(out, static_cast<std::int64_t>(state.retry_full_in));
  Append<std::int64_t>(out, state.next_span);
  Append<std::int64_t>(out, state.last_cycle_span);
  Append<std::int32_t>(out, state.num_sites);
  AppendVector(out, state.estimate);
  for (const SiteCheckpoint& site : state.sites) {
    AppendVector(out, site.last_known);
    Append<std::int64_t>(out, static_cast<std::int64_t>(site.last_grant_cycle));
    Append<std::uint8_t>(out, site.grant_pending ? 1 : 0);
    Append<std::uint8_t>(out, site.anchor_undelivered ? 1 : 0);
    Append<std::uint8_t>(out, static_cast<std::uint8_t>(site.fd_state));
    Append<std::int64_t>(out,
                         static_cast<std::int64_t>(site.fd_last_heard_cycle));
    Append<std::int64_t>(out, static_cast<std::int64_t>(site.fd_deaths));
    Append<std::int64_t>(out,
                         static_cast<std::int64_t>(site.fd_quarantine_until));
    Append<std::uint32_t>(out,
                          static_cast<std::uint32_t>(site.fd_death_cycles.size()));
    for (long cycle : site.fd_death_cycles) {
      Append<std::int64_t>(out, static_cast<std::int64_t>(cycle));
    }
  }
}

bool DecodeSnapshotBody(const std::vector<std::uint8_t>& in,
                        std::size_t offset, CoordinatorCheckpoint* state) {
  std::int64_t cycle = 0, cycles_since_sync = 0, full_syncs = 0;
  std::int64_t partial_resolutions = 0, degraded_syncs = 0, retry_full_in = 0;
  std::uint8_t believes = 0;
  std::int32_t num_sites = 0;
  if (!Read(in, &offset, &state->epoch) || !Read(in, &offset, &cycle) ||
      !Read(in, &offset, &believes) || !Read(in, &offset, &state->epsilon_t) ||
      !Read(in, &offset, &state->threshold) ||
      !Read(in, &offset, &state->delta) ||
      !Read(in, &offset, &state->max_step_norm) ||
      !Read(in, &offset, &cycles_since_sync) ||
      !Read(in, &offset, &full_syncs) ||
      !Read(in, &offset, &partial_resolutions) ||
      !Read(in, &offset, &degraded_syncs) ||
      !Read(in, &offset, &retry_full_in) ||
      !Read(in, &offset, &state->next_span) ||
      !Read(in, &offset, &state->last_cycle_span) ||
      !Read(in, &offset, &num_sites)) {
    return false;
  }
  if (num_sites < 0 ||
      static_cast<std::uint32_t>(num_sites) > kMaxCheckpointElements) {
    return false;
  }
  state->cycle = static_cast<long>(cycle);
  state->believes_above = believes != 0;
  state->cycles_since_sync = static_cast<long>(cycles_since_sync);
  state->full_syncs = static_cast<long>(full_syncs);
  state->partial_resolutions = static_cast<long>(partial_resolutions);
  state->degraded_syncs = static_cast<long>(degraded_syncs);
  state->retry_full_in = static_cast<long>(retry_full_in);
  state->num_sites = num_sites;
  if (!ReadVector(in, &offset, &state->estimate)) return false;
  state->sites.resize(static_cast<std::size_t>(num_sites));
  for (SiteCheckpoint& site : state->sites) {
    std::int64_t last_grant = 0, last_heard = 0, deaths = 0, quarantine = 0;
    std::uint8_t grant_pending = 0, anchor_undelivered = 0, fd_state = 0;
    std::uint32_t num_deaths = 0;
    if (!ReadVector(in, &offset, &site.last_known) ||
        !Read(in, &offset, &last_grant) ||
        !Read(in, &offset, &grant_pending) ||
        !Read(in, &offset, &anchor_undelivered) ||
        !Read(in, &offset, &fd_state) || fd_state > kMaxFdState ||
        !Read(in, &offset, &last_heard) || !Read(in, &offset, &deaths) ||
        !Read(in, &offset, &quarantine) || !Read(in, &offset, &num_deaths) ||
        num_deaths > kMaxCheckpointElements) {
      return false;
    }
    site.last_grant_cycle = static_cast<long>(last_grant);
    site.grant_pending = grant_pending != 0;
    site.anchor_undelivered = anchor_undelivered != 0;
    site.fd_state = static_cast<FailureDetector::State>(fd_state);
    site.fd_last_heard_cycle = static_cast<long>(last_heard);
    site.fd_deaths = static_cast<long>(deaths);
    site.fd_quarantine_until = static_cast<long>(quarantine);
    site.fd_death_cycles.resize(num_deaths);
    for (std::uint32_t i = 0; i < num_deaths; ++i) {
      std::int64_t death = 0;
      if (!Read(in, &offset, &death)) return false;
      site.fd_death_cycles[i] = static_cast<long>(death);
    }
  }
  return offset == in.size();
}

void EncodeWalBody(const WalRecord& record, std::vector<std::uint8_t>* out) {
  Append<std::uint8_t>(out, static_cast<std::uint8_t>(record.kind));
  Append<std::int64_t>(out, static_cast<std::int64_t>(record.cycle));
  Append<std::int64_t>(out, record.epoch);
  Append<std::int64_t>(out, record.next_span);
  switch (record.kind) {
    case WalRecord::Kind::kEpochBump:
      break;
    case WalRecord::Kind::kSyncCommit:
      Append<std::uint8_t>(out, record.degraded ? 1 : 0);
      Append<std::uint8_t>(out, record.believes_above ? 1 : 0);
      Append<double>(out, record.epsilon_t);
      Append<std::int64_t>(out, static_cast<std::int64_t>(record.full_syncs));
      Append<std::int64_t>(out,
                           static_cast<std::int64_t>(record.degraded_syncs));
      Append<std::int64_t>(out, record.last_cycle_span);
      AppendVector(out, record.estimate);
      break;
    case WalRecord::Kind::kPartialResolution:
      Append<std::int64_t>(
          out, static_cast<std::int64_t>(record.partial_resolutions));
      Append<std::int64_t>(out, record.last_cycle_span);
      break;
    case WalRecord::Kind::kRejoinGrant:
      Append<std::int32_t>(out, record.site);
      break;
  }
}

bool DecodeWalBody(const std::vector<std::uint8_t>& body, WalRecord* record) {
  std::size_t offset = 0;
  std::uint8_t kind = 0;
  std::int64_t cycle = 0;
  if (!Read(body, &offset, &kind) || kind == 0 || kind > kMaxWalKind ||
      !Read(body, &offset, &cycle) || !Read(body, &offset, &record->epoch) ||
      !Read(body, &offset, &record->next_span)) {
    return false;
  }
  record->kind = static_cast<WalRecord::Kind>(kind);
  record->cycle = static_cast<long>(cycle);
  switch (record->kind) {
    case WalRecord::Kind::kEpochBump:
      break;
    case WalRecord::Kind::kSyncCommit: {
      std::uint8_t degraded = 0, believes = 0;
      std::int64_t full_syncs = 0, degraded_syncs = 0;
      if (!Read(body, &offset, &degraded) || !Read(body, &offset, &believes) ||
          !Read(body, &offset, &record->epsilon_t) ||
          !Read(body, &offset, &full_syncs) ||
          !Read(body, &offset, &degraded_syncs) ||
          !Read(body, &offset, &record->last_cycle_span) ||
          !ReadVector(body, &offset, &record->estimate)) {
        return false;
      }
      record->degraded = degraded != 0;
      record->believes_above = believes != 0;
      record->full_syncs = static_cast<long>(full_syncs);
      record->degraded_syncs = static_cast<long>(degraded_syncs);
      break;
    }
    case WalRecord::Kind::kPartialResolution: {
      std::int64_t partials = 0;
      if (!Read(body, &offset, &partials) ||
          !Read(body, &offset, &record->last_cycle_span)) {
        return false;
      }
      record->partial_resolutions = static_cast<long>(partials);
      break;
    }
    case WalRecord::Kind::kRejoinGrant:
      if (!Read(body, &offset, &record->site)) return false;
      break;
  }
  return offset == body.size();
}

}  // namespace

// ─── Snapshot codec ────────────────────────────────────────────────────────

std::vector<std::uint8_t> EncodeSnapshot(const CoordinatorCheckpoint& state) {
  SGM_CHECK(state.sites.size() == static_cast<std::size_t>(state.num_sites));
  std::vector<std::uint8_t> out;
  Append<std::uint8_t>(&out, kCheckpointFormatVersion);
  Append<std::uint32_t>(&out, 0u);  // CRC placeholder, patched below
  EncodeSnapshotBody(state, &out);
  const std::uint32_t crc = Crc32c(out.data() + 5, out.size() - 5);
  std::memcpy(out.data() + 1, &crc, sizeof(crc));
  return out;
}

Result<CoordinatorCheckpoint> DecodeSnapshot(
    const std::vector<std::uint8_t>& buffer) {
  if (buffer.size() < 5) {
    return Status::InvalidArgument("snapshot shorter than its framing");
  }
  if (buffer[0] != kCheckpointFormatVersion) {
    return Status::InvalidArgument("unsupported snapshot version " +
                                   std::to_string(buffer[0]));
  }
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, buffer.data() + 1, sizeof(stored_crc));
  const std::uint32_t actual_crc = Crc32c(buffer.data() + 5, buffer.size() - 5);
  if (stored_crc != actual_crc) {
    return Status::InvalidArgument("snapshot checksum mismatch (torn write)");
  }
  CoordinatorCheckpoint state;
  if (!DecodeSnapshotBody(buffer, 5, &state)) {
    return Status::InvalidArgument("snapshot body malformed");
  }
  return state;
}

// ─── WAL codec ─────────────────────────────────────────────────────────────

std::vector<std::uint8_t> EncodeWalRecord(const WalRecord& record) {
  std::vector<std::uint8_t> body;
  EncodeWalBody(record, &body);
  std::vector<std::uint8_t> out;
  Append<std::uint32_t>(&out, static_cast<std::uint32_t>(body.size()));
  Append<std::uint32_t>(&out, Crc32c(body.data(), body.size()));
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

WalDecodeResult DecodeWalStream(const std::vector<std::uint8_t>& wal) {
  WalDecodeResult result;
  std::size_t offset = 0;
  while (offset < wal.size()) {
    std::size_t cursor = offset;
    std::uint32_t length = 0, crc = 0;
    if (!Read(wal, &cursor, &length) || !Read(wal, &cursor, &crc) ||
        length > kMaxCheckpointElements ||
        cursor + length > wal.size()) {
      break;  // torn tail: a record whose append was cut short
    }
    std::vector<std::uint8_t> body(wal.begin() + cursor,
                                   wal.begin() + cursor + length);
    if (Crc32c(body.data(), body.size()) != crc) break;
    WalRecord record;
    if (!DecodeWalBody(body, &record)) break;
    result.records.push_back(std::move(record));
    offset = cursor + length;
  }
  result.torn_bytes = static_cast<long>(wal.size() - offset);
  return result;
}

void ApplyWalRecord(const WalRecord& record, CoordinatorCheckpoint* state) {
  // Absolute post-mutation values: replay is idempotent and order-tolerant
  // within a segment's committed prefix.
  state->cycle = record.cycle;
  state->epoch = record.epoch;
  state->next_span = record.next_span;
  switch (record.kind) {
    case WalRecord::Kind::kEpochBump:
      break;
    case WalRecord::Kind::kSyncCommit:
      state->believes_above = record.believes_above;
      state->epsilon_t = record.epsilon_t;
      state->estimate = record.estimate;
      state->full_syncs = record.full_syncs;
      state->degraded_syncs = record.degraded_syncs;
      state->last_cycle_span = record.last_cycle_span;
      state->cycles_since_sync = 0;
      break;
    case WalRecord::Kind::kPartialResolution:
      state->partial_resolutions = record.partial_resolutions;
      state->last_cycle_span = record.last_cycle_span;
      break;
    case WalRecord::Kind::kRejoinGrant:
      if (record.site >= 0 &&
          record.site < static_cast<int>(state->sites.size())) {
        SiteCheckpoint& site = state->sites[record.site];
        site.grant_pending = true;
        site.last_grant_cycle = record.cycle;
        if (site.fd_state == FailureDetector::State::kDead ||
            site.fd_state == FailureDetector::State::kLagging) {
          site.fd_state = FailureDetector::State::kRejoining;
        }
      }
      break;
  }
}

// ─── In-memory store ───────────────────────────────────────────────────────

void InMemoryCheckpointStore::PutSnapshot(std::vector<std::uint8_t> bytes) {
  segments_.push_back({std::move(bytes), {}});
  while (segments_.size() > 2) segments_.pop_front();
}

void InMemoryCheckpointStore::AppendWal(const std::vector<std::uint8_t>& bytes) {
  // A WAL record before any snapshot gets an (invalid) empty-snapshot
  // segment; recovery rejects it, matching "nothing durable yet".
  if (segments_.empty()) segments_.push_back({});
  segments_.back().wal.insert(segments_.back().wal.end(), bytes.begin(),
                              bytes.end());
}

std::vector<CheckpointStore::Candidate> InMemoryCheckpointStore::Candidates()
    const {
  std::vector<Candidate> candidates;
  for (std::size_t i = segments_.size(); i-- > 0;) {
    Candidate candidate;
    candidate.snapshot = segments_[i].snapshot;
    for (std::size_t j = i; j < segments_.size(); ++j) {
      candidate.wal_segments.push_back(segments_[j].wal);
    }
    candidates.push_back(std::move(candidate));
  }
  return candidates;
}

void InMemoryCheckpointStore::TearSnapshotTail(std::size_t bytes) {
  if (segments_.empty()) return;
  std::vector<std::uint8_t>& snapshot = segments_.back().snapshot;
  snapshot.resize(snapshot.size() > bytes ? snapshot.size() - bytes : 0);
}

void InMemoryCheckpointStore::AppendTornWalBytes(
    const std::vector<std::uint8_t>& garbage) {
  AppendWal(garbage);
}

// ─── File-backed store ─────────────────────────────────────────────────────

FileCheckpointStore::FileCheckpointStore(std::string directory)
    : directory_(std::move(directory)) {
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  for (const auto& entry :
       std::filesystem::directory_iterator(directory_, ec)) {
    const std::string name = entry.path().filename().string();
    long index = -1;
    if (std::sscanf(name.c_str(), "snap-%ld.ckpt", &index) == 1) {
      latest_index_ = std::max(latest_index_, index);
    }
  }
}

std::string FileCheckpointStore::SnapshotPath(long index) const {
  return directory_ + "/snap-" + std::to_string(index) + ".ckpt";
}

std::string FileCheckpointStore::WalPath(long index) const {
  return directory_ + "/wal-" + std::to_string(index) + ".log";
}

void FileCheckpointStore::PutSnapshot(std::vector<std::uint8_t> bytes) {
  const long index = latest_index_ + 1;
  const std::string tmp = SnapshotPath(index) + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  // Atomic publication: readers see either no snapshot-N or a complete one.
  std::error_code ec;
  std::filesystem::rename(tmp, SnapshotPath(index), ec);
  if (ec) return;  // snapshot not published; the previous one still stands
  latest_index_ = index;
  // Open the fresh WAL segment and retire artifacts older than N-1.
  std::ofstream(WalPath(index), std::ios::binary | std::ios::trunc);
  std::filesystem::remove(SnapshotPath(index - 2), ec);
  std::filesystem::remove(WalPath(index - 2), ec);
}

void FileCheckpointStore::AppendWal(const std::vector<std::uint8_t>& bytes) {
  const long index = latest_index_ < 0 ? 0 : latest_index_;
  std::ofstream out(WalPath(index), std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
}

std::vector<CheckpointStore::Candidate> FileCheckpointStore::Candidates()
    const {
  auto load = [](const std::string& path) {
    std::vector<std::uint8_t> bytes;
    std::ifstream in(path, std::ios::binary);
    if (!in) return bytes;
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
    return bytes;
  };
  std::vector<Candidate> candidates;
  if (latest_index_ < 0) return candidates;
  for (long index = latest_index_;
       index >= 0 && index > latest_index_ - 2; --index) {
    if (!std::filesystem::exists(SnapshotPath(index))) continue;
    Candidate candidate;
    candidate.snapshot = load(SnapshotPath(index));
    for (long wal = index; wal <= latest_index_; ++wal) {
      candidate.wal_segments.push_back(load(WalPath(wal)));
    }
    candidates.push_back(std::move(candidate));
  }
  return candidates;
}

// ─── Reconstruction ────────────────────────────────────────────────────────

Result<Reconstruction> ReconstructCoordinatorState(
    const CheckpointStore& store) {
  Reconstruction result;
  for (const CheckpointStore::Candidate& candidate : store.Candidates()) {
    Result<CoordinatorCheckpoint> snapshot = DecodeSnapshot(candidate.snapshot);
    if (!snapshot.ok()) {
      ++result.snapshots_discarded;
      continue;
    }
    result.state = std::move(snapshot).ValueOrDie();
    // Segments replay independently: a torn tail in one (the crash point of
    // a previous incarnation) never hides committed records in a later one.
    for (const std::vector<std::uint8_t>& segment : candidate.wal_segments) {
      WalDecodeResult wal = DecodeWalStream(segment);
      for (const WalRecord& record : wal.records) {
        ApplyWalRecord(record, &result.state);
        ++result.wal_records_replayed;
      }
      result.torn_wal_bytes += wal.torn_bytes;
    }
    return result;
  }
  return Status::NotFound("no decodable checkpoint snapshot");
}

}  // namespace sgm
