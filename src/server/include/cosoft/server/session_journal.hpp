// Durable append-only session journal (ROADMAP item 1).
//
// One file per session holds the canonical replayable history: a fixed
// header, then length-prefixed CRC-framed records. Record payloads reuse the
// wire encodings — a kFrame record carries a raw protocol::Frame exactly as
// it arrived, so replaying the journal through the real dispatch handlers
// reconstructs the session state bit-for-bit. Snapshot records carry the
// session's own snapshot() image; size-triggered compaction rewrites the
// file as [header][snapshot] via temp-file + rename, so a crash at any
// instant leaves either the old journal or the new one, never a hybrid.
//
// On-disk format (all framing fields fixed-width little-endian; payloads use
// the varint ByteWriter wire format):
//
//   header:  "COSJ" magic | u32 version | u32 name_len | session name bytes
//   record:  u32 payload_len | u32 crc32(payload) | payload
//   payload: u8 type | u64 seq | body
//     kSnapshot body: bytes(session snapshot image)
//     kFrame    body: u32 origin instance | bytes(raw inbound frame)
//     kDetach   body: u32 detached instance
//
// Recovery loads the longest valid prefix: a record with a bad length, a
// CRC mismatch, or a truncated payload ends the scan, and the torn tail is
// truncated away so the next append starts on a clean boundary. Torn writes
// therefore cost at most the final record — never the journal.
//
// Appends happen off the broadcast spine (CoSession stages records during
// dispatch and flushes them in a post-broadcast strand step), so the
// zero-allocation broadcast budget is untouched. Explicit sync() points map
// to fsync according to the policy; fault hooks let tests fail fsync or
// shorten writes deterministically.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cosoft/common/error.hpp"

namespace cosoft::server {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `data` — the integrity
/// check framing every journal record.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept;

/// When appended records reach the disk.
enum class FsyncPolicy : std::uint8_t {
    kNever,   ///< leave it to the page cache (tests, throwaway sessions)
    kBatch,   ///< fsync once per explicit sync() point (default)
    kAlways,  ///< fsync after every append
};

struct SessionJournalOptions {
    std::string dir;                          ///< journal directory (must exist or be creatable)
    std::size_t compact_bytes = 4u << 20;     ///< live-file size that arms should_compact()
    FsyncPolicy fsync = FsyncPolicy::kBatch;
};

/// Deterministic failure injection for crash-recovery tests. Applied to the
/// *next* matching operation(s); counters tick down to zero.
struct JournalFaults {
    std::uint32_t fail_fsyncs = 0;    ///< next N fsyncs report failure
    std::uint32_t short_writes = 0;   ///< next N appends write only half the record
    /// Runs on the appending thread before every record append: lets tests
    /// observe what else has happened by the time the journal is written,
    /// such as frames already on the wire.
    std::function<void()> before_append;
};

class SessionJournal {
  public:
    enum class RecordType : std::uint8_t {
        kSnapshot = 1,  ///< full session snapshot (compaction point)
        kFrame = 2,     ///< one inbound wire frame, verbatim
        kDetach = 3,    ///< connection departure (mutates state but has no frame)
    };

    struct Record {
        RecordType type = RecordType::kFrame;
        std::uint64_t seq = 0;
        std::uint32_t origin = 0;            ///< kFrame: sender; kDetach: departed instance
        std::vector<std::uint8_t> body;      ///< kFrame: raw frame; kSnapshot: image
        std::size_t bytes = 0;               ///< size on disk, framing included
    };

    /// What open() salvaged from an existing file.
    struct Recovered {
        std::vector<std::uint8_t> snapshot;  ///< latest snapshot image (empty: none)
        std::uint64_t snapshot_seq = 0;
        std::vector<Record> tail;            ///< records after the snapshot, in order
        std::uint64_t last_seq = 0;          ///< highest seq on disk (0: empty journal)
        std::size_t records_scanned = 0;
        std::size_t torn_bytes = 0;          ///< bytes truncated off a torn tail
    };

    SessionJournal(std::string session_name, SessionJournalOptions options);
    ~SessionJournal();

    SessionJournal(const SessionJournal&) = delete;
    SessionJournal& operator=(const SessionJournal&) = delete;

    /// Opens (creating if absent) the journal file, scans the longest valid
    /// record prefix, truncates any torn tail, and positions for append.
    [[nodiscard]] Status open();

    [[nodiscard]] const Recovered& recovered() const noexcept { return recovered_; }
    [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }
    [[nodiscard]] const std::string& path() const noexcept { return path_; }
    [[nodiscard]] const std::string& session() const noexcept { return session_; }

    /// Next sequence number an append will receive.
    [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }
    [[nodiscard]] std::uint64_t last_seq() const noexcept { return next_seq_ - 1; }

    /// Appends one inbound frame record; returns its seq (0 when closed).
    std::uint64_t append_frame(std::uint32_t origin, std::span<const std::uint8_t> frame);
    /// Appends a departure record; returns its seq (0 when closed).
    std::uint64_t append_detach(std::uint32_t instance);

    /// Explicit durability point (fsync under kBatch/kAlways).
    Status sync();

    /// True once the live file has outgrown compact_bytes.
    [[nodiscard]] bool should_compact() const noexcept;

    /// Rewrites the journal as [header][snapshot record] via temp + rename.
    /// The snapshot captures everything up to last_seq(); the next append
    /// continues the same sequence.
    Status compact(std::span<const std::uint8_t> snapshot_image);

    [[nodiscard]] std::size_t bytes_on_disk() const noexcept { return file_bytes_; }
    [[nodiscard]] std::uint64_t appends() const noexcept { return appends_; }

    void set_faults(const JournalFaults& faults);

    /// Filesystem name for a session's journal ("default" for the unnamed
    /// session; path separators mangled).
    [[nodiscard]] static std::string file_name(std::string_view session);

    /// Reads the exact session name out of a journal file's header — the
    /// filesystem name is mangled, so boot-time directory scans use this to
    /// recover the sessions to recreate. nullopt on a missing/foreign file.
    [[nodiscard]] static std::optional<std::string> read_session_name(const std::string& path);

    /// The newest `last` records (all by default) in the valid prefix of the
    /// journal file at `path`, found by the same scan recovery runs, without
    /// modifying the file. Only the returned records' bodies are copied. Safe
    /// from any thread while the owning session appends or compacts: a torn
    /// final record ends the prefix, and compaction swaps the file by rename.
    /// Empty when the file is missing or not a journal.
    [[nodiscard]] static std::vector<Record> read_records(
        const std::string& path, std::size_t last = std::numeric_limits<std::size_t>::max());

  private:
    std::uint64_t append_record(RecordType type, std::uint32_t origin, std::span<const std::uint8_t> body);
    Status write_all(int fd, std::span<const std::uint8_t> data, bool allow_fault);
    Status do_fsync(int fd);

    std::string session_;
    SessionJournalOptions options_;
    std::string path_;
    int fd_ = -1;
    std::uint64_t next_seq_ = 1;
    std::size_t file_bytes_ = 0;
    std::uint64_t appends_ = 0;
    bool failed_ = false;  ///< a write failed; further appends are dropped
    Recovered recovered_;
    JournalFaults faults_;
};

}  // namespace cosoft::server
