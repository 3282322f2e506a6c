#include "core/checkpoint.hpp"

#include <bit>
#include <cstring>
#include <filesystem>

#include "io/file.hpp"
#include "util/crc32c.hpp"
#include "util/str_format.hpp"

namespace graphsd::core {
namespace {

// ---------------------------------------------------------------------------
// Little-endian payload encoding.

void AppendU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void AppendU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void AppendDouble(std::vector<std::uint8_t>& out, double v) {
  AppendU64(out, std::bit_cast<std::uint64_t>(v));
}

void AppendBytes(std::vector<std::uint8_t>& out, const void* data,
                 std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), bytes, bytes + size);
}

/// Bounds-checked forward reader over the payload; every primitive read
/// fails with kCorruptData instead of running past the declared size.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  Status ReadU32(std::uint32_t& out) {
    GRAPHSD_RETURN_IF_ERROR(Need(4));
    out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return Status::Ok();
  }

  Status ReadU64(std::uint64_t& out) {
    GRAPHSD_RETURN_IF_ERROR(Need(8));
    out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return Status::Ok();
  }

  Status ReadDouble(double& out) {
    std::uint64_t bits = 0;
    GRAPHSD_RETURN_IF_ERROR(ReadU64(bits));
    out = std::bit_cast<double>(bits);
    return Status::Ok();
  }

  Status ReadU8(std::uint8_t& out) {
    GRAPHSD_RETURN_IF_ERROR(Need(1));
    out = data_[pos_++];
    return Status::Ok();
  }

  Status ReadBytes(void* out, std::size_t size) {
    GRAPHSD_RETURN_IF_ERROR(Need(size));
    // An empty array's data() may be null, and memcpy's pointers must not
    // be, even for zero bytes.
    if (size == 0) return Status::Ok();
    std::memcpy(out, data_.data() + pos_, size);
    pos_ += size;
    return Status::Ok();
  }

  std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
  Status Need(std::size_t size) const {
    if (data_.size() - pos_ < size) {
      return CorruptDataError("checkpoint payload truncated");
    }
    return Status::Ok();
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

void AppendIdList(std::vector<std::uint8_t>& out,
                  const std::vector<VertexId>& ids) {
  AppendU64(out, ids.size());
  static_assert(sizeof(VertexId) == 4);
  AppendBytes(out, ids.data(), ids.size() * sizeof(VertexId));
}

Status ReadIdList(Reader& reader, VertexId num_vertices,
                  std::vector<VertexId>& out) {
  std::uint64_t count = 0;
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU64(count));
  if (count > num_vertices) {
    return CorruptDataError("checkpoint frontier larger than vertex count");
  }
  out.resize(count);
  GRAPHSD_RETURN_IF_ERROR(
      reader.ReadBytes(out.data(), count * sizeof(VertexId)));
  VertexId prev = 0;
  for (std::size_t k = 0; k < out.size(); ++k) {
    if (out[k] >= num_vertices || (k > 0 && out[k] <= prev)) {
      return CorruptDataError("checkpoint frontier ids not ascending");
    }
    prev = out[k];
  }
  return Status::Ok();
}

}  // namespace

std::uint32_t DatasetFingerprint(const partition::GridManifest& manifest) {
  const std::string text = manifest.Serialize();
  return Crc32c(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

std::vector<std::uint8_t> EncodeCheckpoint(const Checkpoint& checkpoint) {
  std::vector<std::uint8_t> payload;
  // Rough reservation: arrays dominate.
  std::size_t reserve = 256;
  for (const auto& array : checkpoint.arrays) {
    reserve += array.size() * sizeof(Slot);
  }
  reserve += (checkpoint.active.size() + checkpoint.preact.size()) *
             sizeof(VertexId);
  payload.reserve(reserve);

  AppendU32(payload, checkpoint.fingerprint);
  AppendU32(payload, static_cast<std::uint32_t>(checkpoint.algorithm.size()));
  AppendBytes(payload, checkpoint.algorithm.data(),
              checkpoint.algorithm.size());
  payload.push_back(checkpoint.gather ? 1 : 0);
  AppendU32(payload, checkpoint.iteration);
  AppendU32(payload, checkpoint.num_vertices);

  AppendU32(payload, static_cast<std::uint32_t>(checkpoint.arrays.size()));
  for (const auto& array : checkpoint.arrays) {
    AppendBytes(payload, array.data(), array.size() * sizeof(Slot));
  }

  AppendIdList(payload, checkpoint.active);
  AppendIdList(payload, checkpoint.preact);

  AppendU32(payload, checkpoint.rounds);
  AppendU32(payload, checkpoint.degraded_rounds);
  AppendDouble(payload, checkpoint.compute_seconds);
  AppendDouble(payload, checkpoint.update_seconds);
  AppendDouble(payload, checkpoint.io_seconds);
  AppendDouble(payload, checkpoint.scheduler_seconds);
  AppendDouble(payload, checkpoint.overlapped_seconds);
  AppendDouble(payload, checkpoint.decode_seconds);

  const io::IoStatsSnapshot& io = checkpoint.io;
  AppendU64(payload, io.seq_read_bytes);
  AppendU64(payload, io.seq_write_bytes);
  AppendU64(payload, io.rand_read_bytes);
  AppendU64(payload, io.rand_write_bytes);
  AppendU64(payload, io.seq_read_ops);
  AppendU64(payload, io.seq_write_ops);
  AppendU64(payload, io.rand_read_ops);
  AppendU64(payload, io.rand_write_ops);
  AppendU64(payload, io.retries);
  AppendU64(payload, io.checksum_failures);
  AppendU64(payload, io.eintr_absorbed);

  AppendU64(payload, checkpoint.buffer_hits);
  AppendU64(payload, checkpoint.buffer_misses);
  AppendU64(payload, checkpoint.buffer_bytes_saved);
  AppendU64(payload, checkpoint.buffer_disk_bytes_saved);
  AppendU64(payload, checkpoint.frames_decoded);
  AppendU64(payload, checkpoint.compressed_bytes_read);
  AppendU64(payload, checkpoint.decoded_bytes);

  AppendU32(payload, checkpoint.checkpoints_written);
  AppendU64(payload, checkpoint.checkpoint_bytes);
  AppendDouble(payload, checkpoint.checkpoint_seconds);

  std::vector<std::uint8_t> frame;
  frame.reserve(kCheckpointHeaderBytes + payload.size());
  AppendBytes(frame, kCheckpointMagic, sizeof(kCheckpointMagic));
  AppendU32(frame, kCheckpointFormatVersion);
  AppendU64(frame, payload.size());
  AppendU32(frame, Crc32c(std::span<const std::uint8_t>(payload)));
  while (frame.size() < kCheckpointHeaderBytes) frame.push_back(0);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

Result<Checkpoint> DecodeCheckpoint(std::span<const std::uint8_t> frame) {
  if (frame.size() < kCheckpointHeaderBytes) {
    return CorruptDataError("checkpoint shorter than its header");
  }
  if (std::memcmp(frame.data(), kCheckpointMagic, sizeof(kCheckpointMagic)) !=
      0) {
    return CorruptDataError("checkpoint magic mismatch");
  }
  Reader header(frame.subspan(sizeof(kCheckpointMagic)));
  std::uint32_t version = 0;
  std::uint64_t payload_bytes = 0;
  std::uint32_t payload_crc = 0;
  GRAPHSD_RETURN_IF_ERROR(header.ReadU32(version));
  GRAPHSD_RETURN_IF_ERROR(header.ReadU64(payload_bytes));
  GRAPHSD_RETURN_IF_ERROR(header.ReadU32(payload_crc));
  if (version != kCheckpointFormatVersion) {
    return UnimplementedError(
        StrPrintf("checkpoint format version %u (this build reads %u)",
                  version, kCheckpointFormatVersion));
  }
  if (frame.size() - kCheckpointHeaderBytes != payload_bytes) {
    return CorruptDataError(StrPrintf(
        "checkpoint payload size mismatch: header declares %llu, file has "
        "%llu",
        static_cast<unsigned long long>(payload_bytes),
        static_cast<unsigned long long>(frame.size() -
                                        kCheckpointHeaderBytes)));
  }
  const auto payload = frame.subspan(kCheckpointHeaderBytes);
  if (Crc32c(payload) != payload_crc) {
    return CorruptDataError("checkpoint payload CRC mismatch");
  }

  Checkpoint checkpoint;
  Reader reader(payload);
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU32(checkpoint.fingerprint));
  std::uint32_t name_len = 0;
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU32(name_len));
  if (name_len > reader.remaining()) {
    return CorruptDataError("checkpoint algorithm name truncated");
  }
  checkpoint.algorithm.resize(name_len);
  GRAPHSD_RETURN_IF_ERROR(
      reader.ReadBytes(checkpoint.algorithm.data(), name_len));
  std::uint8_t gather = 0;
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU8(gather));
  checkpoint.gather = gather != 0;
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU32(checkpoint.iteration));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU32(checkpoint.num_vertices));

  std::uint32_t num_arrays = 0;
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU32(num_arrays));
  const std::uint64_t array_bytes =
      static_cast<std::uint64_t>(checkpoint.num_vertices) * sizeof(Slot);
  if (num_arrays > 64 ||
      static_cast<std::uint64_t>(num_arrays) * array_bytes >
          reader.remaining()) {
    return CorruptDataError("checkpoint array section truncated");
  }
  checkpoint.arrays.resize(num_arrays);
  for (auto& array : checkpoint.arrays) {
    array.resize(checkpoint.num_vertices);
    GRAPHSD_RETURN_IF_ERROR(reader.ReadBytes(array.data(), array_bytes));
  }

  GRAPHSD_RETURN_IF_ERROR(
      ReadIdList(reader, checkpoint.num_vertices, checkpoint.active));
  GRAPHSD_RETURN_IF_ERROR(
      ReadIdList(reader, checkpoint.num_vertices, checkpoint.preact));

  GRAPHSD_RETURN_IF_ERROR(reader.ReadU32(checkpoint.rounds));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU32(checkpoint.degraded_rounds));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadDouble(checkpoint.compute_seconds));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadDouble(checkpoint.update_seconds));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadDouble(checkpoint.io_seconds));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadDouble(checkpoint.scheduler_seconds));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadDouble(checkpoint.overlapped_seconds));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadDouble(checkpoint.decode_seconds));

  io::IoStatsSnapshot& io = checkpoint.io;
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU64(io.seq_read_bytes));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU64(io.seq_write_bytes));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU64(io.rand_read_bytes));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU64(io.rand_write_bytes));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU64(io.seq_read_ops));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU64(io.seq_write_ops));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU64(io.rand_read_ops));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU64(io.rand_write_ops));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU64(io.retries));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU64(io.checksum_failures));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU64(io.eintr_absorbed));

  GRAPHSD_RETURN_IF_ERROR(reader.ReadU64(checkpoint.buffer_hits));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU64(checkpoint.buffer_misses));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU64(checkpoint.buffer_bytes_saved));
  GRAPHSD_RETURN_IF_ERROR(
      reader.ReadU64(checkpoint.buffer_disk_bytes_saved));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU64(checkpoint.frames_decoded));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU64(checkpoint.compressed_bytes_read));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU64(checkpoint.decoded_bytes));

  GRAPHSD_RETURN_IF_ERROR(reader.ReadU32(checkpoint.checkpoints_written));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadU64(checkpoint.checkpoint_bytes));
  GRAPHSD_RETURN_IF_ERROR(reader.ReadDouble(checkpoint.checkpoint_seconds));

  if (reader.remaining() != 0) {
    return CorruptDataError("checkpoint payload has trailing bytes");
  }
  return checkpoint;
}

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {}

std::string CheckpointStore::SlotPath(int slot) const {
  return dir_ + "/checkpoint." + std::to_string(slot) + ".gsck";
}

bool CheckpointStore::AnySlotExists() const {
  return io::PathExists(SlotPath(0)) || io::PathExists(SlotPath(1));
}

Result<Checkpoint> CheckpointStore::TryLoadSlot(int slot) const {
  GRAPHSD_ASSIGN_OR_RETURN(std::string contents,
                           io::ReadFileToString(SlotPath(slot)));
  return DecodeCheckpoint(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(contents.data()),
      contents.size()));
}

int CheckpointStore::PickWriteSlot() const {
  // Overwrite the slot NOT holding the latest valid checkpoint: a corrupt
  // or missing slot is always fair game; between two valid slots the older
  // one goes.
  std::uint64_t iteration[2];
  bool valid[2];
  for (int slot = 0; slot < 2; ++slot) {
    auto loaded = TryLoadSlot(slot);
    valid[slot] = loaded.ok();
    iteration[slot] = loaded.ok() ? loaded.value().iteration : 0;
  }
  if (!valid[0]) return 0;
  if (!valid[1]) return 1;
  return iteration[0] <= iteration[1] ? 0 : 1;
}

Status CheckpointStore::Write(const Checkpoint& checkpoint,
                              std::uint64_t* frame_bytes) {
  const std::vector<std::uint8_t> frame = EncodeCheckpoint(checkpoint);
  GRAPHSD_RETURN_IF_ERROR(WriteFrame(std::span<const std::uint8_t>(frame)));
  if (frame_bytes != nullptr) *frame_bytes = frame.size();
  return Status::Ok();
}

Status CheckpointStore::WriteFrame(std::span<const std::uint8_t> frame) {
  GRAPHSD_RETURN_IF_ERROR(io::MakeDirectories(dir_));
  if (write_slot_ < 0) write_slot_ = PickWriteSlot();
  // sync_dir = false: losing the rename in a crash just resurfaces the
  // previous slot contents, which LoadLatest handles by design (the same
  // fallback that covers a torn frame). The file-content fdatasync before
  // the rename is the one barrier checkpoints genuinely need — without it
  // a crash could tear BOTH slots over time.
  GRAPHSD_RETURN_IF_ERROR(io::WriteFileAtomic(SlotPath(write_slot_), frame,
                                              /*sync_dir=*/false));
  write_slot_ = 1 - write_slot_;
  return Status::Ok();
}

Result<Checkpoint> CheckpointStore::LoadLatest() {
  if (!AnySlotExists()) {
    return NotFoundError(
        StrPrintf("no checkpoint in %s", dir_.c_str()));
  }
  Result<Checkpoint> best =
      CorruptDataError(StrPrintf("no valid checkpoint slot in %s (both "
                                 "slots missing, torn or corrupt)",
                                 dir_.c_str()));
  for (int slot = 0; slot < 2; ++slot) {
    auto loaded = TryLoadSlot(slot);
    if (!loaded.ok()) continue;
    if (!best.ok() || loaded.value().iteration > best.value().iteration) {
      best = std::move(loaded);
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// AsyncCheckpointWriter

AsyncCheckpointWriter::AsyncCheckpointWriter(CheckpointStore* store)
    : store_(store) {}

AsyncCheckpointWriter::~AsyncCheckpointWriter() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

Result<std::uint64_t> AsyncCheckpointWriter::Submit(
    const Checkpoint& checkpoint) {
  std::vector<std::uint8_t> frame = EncodeCheckpoint(checkpoint);
  const std::uint64_t size = frame.size();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_.ok()) return error_;
    if (has_pending_) ++dropped_;  // superseded before it hit disk
    pending_ = std::move(frame);
    has_pending_ = true;
    if (!thread_.joinable()) {
      thread_ = std::thread(&AsyncCheckpointWriter::Loop, this);
    }
  }
  wake_.notify_one();
  return size;
}

Status AsyncCheckpointWriter::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return !has_pending_ && !writing_; });
  return error_;
}

std::uint64_t AsyncCheckpointWriter::frames_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::uint64_t AsyncCheckpointWriter::bytes_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_written_;
}

void AsyncCheckpointWriter::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait(lock, [this] { return has_pending_ || stop_; });
    if (!has_pending_) break;  // stop requested, queue drained
    std::vector<std::uint8_t> frame = std::move(pending_);
    pending_.clear();
    has_pending_ = false;
    writing_ = true;
    lock.unlock();
    const Status status =
        store_->WriteFrame(std::span<const std::uint8_t>(frame));
    lock.lock();
    writing_ = false;
    if (status.ok()) {
      bytes_written_ += frame.size();
    } else if (error_.ok()) {
      error_ = status;
    }
    if (!has_pending_) idle_.notify_all();
  }
}

}  // namespace graphsd::core
