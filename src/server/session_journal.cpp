#include "cosoft/server/session_journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <deque>
#include <limits>
#include <optional>
#include <string_view>
#include <utility>

#include "cosoft/common/bytes.hpp"
#include "cosoft/obs/metrics.hpp"

namespace cosoft::server {

namespace {

constexpr std::array<char, 4> kMagic = {'C', 'O', 'S', 'J'};
constexpr std::uint32_t kJournalVersion = 1;
/// Fixed header prefix: magic | u32 version | u32 name_len. The session name
/// bytes follow, so boot-time directory scans recover the exact session name
/// (file_name() mangles separators irreversibly).
constexpr std::size_t kHeaderFixedBytes = kMagic.size() + 2 * sizeof(std::uint32_t);
constexpr std::size_t kMaxSessionNameBytes = 4096;
constexpr std::size_t kRecordHeaderBytes = 2 * sizeof(std::uint32_t);
/// Sanity cap on a single record: a length field beyond this is treated as
/// corruption, ending the valid prefix instead of attempting a huge read.
constexpr std::size_t kMaxRecordBytes = 64u << 20;

std::uint32_t load_u32(const std::uint8_t* p) noexcept {
    return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_u32(std::uint8_t* p, std::uint32_t v) noexcept {
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
}

struct JournalMetrics {
    obs::Counter& appends = obs::Registry::global().counter("cosoft_journal_appends_total");
    obs::Counter& bytes = obs::Registry::global().counter("cosoft_journal_bytes_total");
    obs::Counter& fsyncs = obs::Registry::global().counter("cosoft_journal_fsyncs_total");
    obs::Counter& compactions = obs::Registry::global().counter("cosoft_journal_compactions_total");
    obs::Counter& recovered = obs::Registry::global().counter("cosoft_journal_recovered_records_total");
    obs::Counter& torn = obs::Registry::global().counter("cosoft_journal_torn_tails_total");
    obs::Counter& errors = obs::Registry::global().counter("cosoft_journal_errors_total");
};

JournalMetrics& journal_metrics() {
    static JournalMetrics m;
    return m;
}

const std::array<std::uint32_t, 256>& crc_table() {
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table;
}

/// Reads the file at `path` into `out`, at most its first `limit` bytes.
/// Session journals compact at a few MB, so a full read is the simple and
/// correct path.
bool read_file(const std::string& path, std::vector<std::uint8_t>& out,
               std::size_t limit = std::numeric_limits<std::size_t>::max()) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return false;
    struct ::stat st {};
    bool read = ::fstat(fd, &st) == 0;
    out.resize(read ? std::min(static_cast<std::size_t>(st.st_size), limit) : 0);
    for (std::size_t off = 0; read && off < out.size();) {
        const ::ssize_t n = ::pread(fd, out.data() + off, out.size() - off, static_cast<::off_t>(off));
        read = n > 0;
        if (read) off += static_cast<std::size_t>(n);
    }
    ::close(fd);
    return read;
}

/// The file header: magic | u32 version | u32 name_len | session name.
std::vector<std::uint8_t> header_of(std::string_view session) {
    std::vector<std::uint8_t> out(kHeaderFixedBytes + session.size());
    std::memcpy(out.data(), kMagic.data(), kMagic.size());
    store_u32(out.data() + kMagic.size(), kJournalVersion);
    store_u32(out.data() + kMagic.size() + sizeof(std::uint32_t), static_cast<std::uint32_t>(session.size()));
    std::memcpy(out.data() + kHeaderFixedBytes, session.data(), session.size());
    return out;
}

/// Appends one framed record to `out` in the layout scan_records() reads:
/// u32 payload_len | u32 crc32(payload) | payload (u8 type | u64 seq | body).
void append_framed(std::vector<std::uint8_t>& out, SessionJournal::RecordType type, std::uint64_t seq,
                   std::uint32_t origin, std::span<const std::uint8_t> body) {
    using RecordType = SessionJournal::RecordType;
    ByteWriter payload;
    payload.u8(static_cast<std::uint8_t>(type));
    payload.u64(seq);
    if (type != RecordType::kSnapshot) payload.u32(origin);
    if (type != RecordType::kDetach) payload.bytes(body);
    const std::size_t at = out.size();
    out.resize(at + kRecordHeaderBytes + payload.size());
    store_u32(out.data() + at, static_cast<std::uint32_t>(payload.size()));
    store_u32(out.data() + at + sizeof(std::uint32_t), crc32(payload.data()));
    std::memcpy(out.data() + at + kRecordHeaderBytes, payload.data().data(), payload.size());
}

/// A journal image's header: the session name it holds and its size.
struct Header {
    std::string_view session;
    std::size_t bytes = 0;
};

/// nullopt when `data` does not start with a complete journal header.
std::optional<Header> parse_header(std::span<const std::uint8_t> data) {
    if (data.size() < kHeaderFixedBytes || std::memcmp(data.data(), kMagic.data(), kMagic.size()) != 0 ||
        load_u32(data.data() + kMagic.size()) != kJournalVersion) {
        return std::nullopt;
    }
    const std::size_t name_len = load_u32(data.data() + kMagic.size() + sizeof(std::uint32_t));
    if (name_len > kMaxSessionNameBytes || data.size() < kHeaderFixedBytes + name_len) return std::nullopt;
    return Header{{reinterpret_cast<const char*>(data.data()) + kHeaderFixedBytes, name_len},
                  kHeaderFixedBytes + name_len};
}

/// A record as scan_records() finds it: the body borrows the scanned image.
struct RecordView {
    SessionJournal::RecordType type = SessionJournal::RecordType::kFrame;
    std::uint64_t seq = 0;
    std::uint32_t origin = 0;
    std::span<const std::uint8_t> body;
    std::size_t bytes = 0;

    [[nodiscard]] SessionJournal::Record copy() const {
        return {type, seq, origin, {body.begin(), body.end()}, bytes};
    }
};

/// Walks the valid record prefix of `data` from `pos` (just past the
/// header), handing each record to `visit`. A record with a bad length, a
/// CRC mismatch, a truncated payload or a malformed body ends the prefix.
/// Returns the byte offset where the valid prefix ends.
template <typename Visit>
std::size_t scan_records(std::span<const std::uint8_t> data, std::size_t pos, Visit visit) {
    using RecordType = SessionJournal::RecordType;
    while (pos + kRecordHeaderBytes <= data.size()) {
        const std::uint32_t len = load_u32(data.data() + pos);
        const std::uint32_t crc = load_u32(data.data() + pos + sizeof(std::uint32_t));
        if (len == 0 || len > kMaxRecordBytes) break;
        if (pos + kRecordHeaderBytes + len > data.size()) break;  // truncated payload
        const std::span<const std::uint8_t> payload = data.subspan(pos + kRecordHeaderBytes, len);
        if (crc32(payload) != crc) break;  // torn or corrupted record

        ByteReader r{payload};
        RecordView rec;
        const std::uint8_t type = r.u8();
        rec.seq = r.u64();
        rec.bytes = kRecordHeaderBytes + len;
        rec.type = static_cast<RecordType>(type);
        if (type < static_cast<std::uint8_t>(RecordType::kSnapshot) ||
            type > static_cast<std::uint8_t>(RecordType::kDetach)) {
            r.fail();
        }
        if (rec.type != RecordType::kSnapshot) rec.origin = r.u32();
        if (rec.type != RecordType::kDetach) rec.body = r.bytes_view();
        if (!r.exhausted()) break;  // structurally invalid despite a good CRC
        visit(rec);
        pos += kRecordHeaderBytes + len;
    }
    return pos;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
    const auto& table = crc_table();
    std::uint32_t c = 0xFFFFFFFFu;
    for (const std::uint8_t b : data) c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

std::string SessionJournal::file_name(std::string_view session) {
    std::string name = session.empty() ? "default" : std::string{session};
    for (char& c : name) {
        if (c == '/' || c == '\\' || c == '\0' || c == '.') c = '_';
    }
    return name + ".cosj";
}

SessionJournal::SessionJournal(std::string session_name, SessionJournalOptions options)
    : session_(std::move(session_name)), options_(std::move(options)) {
    path_ = options_.dir + "/" + file_name(session_);
}

SessionJournal::~SessionJournal() {
    if (fd_ >= 0) {
        if (options_.fsync != FsyncPolicy::kNever) (void)::fsync(fd_);
        ::close(fd_);
    }
}

Status SessionJournal::open() {
    ::mkdir(options_.dir.c_str(), 0777);  // best-effort; open() reports real failures
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0) {
        journal_metrics().errors.inc();
        return Status{ErrorCode::kTransport,
                      "journal open failed: " + path_ + ": " + std::strerror(errno)};
    }

    std::vector<std::uint8_t> data;
    if (!read_file(path_, data)) {
        journal_metrics().errors.inc();
        return Status{ErrorCode::kTransport, "journal read failed: " + path_};
    }

    recovered_ = Recovered{};
    std::size_t valid_end = 0;
    // The name in the header is authoritative for this file; a mismatch
    // means the file belongs to a different session (hash-mangled name
    // collision) and must not be replayed into this one. An unrecognizable
    // header is treated as an empty journal rather than replaying garbage;
    // the rewrite below reclaims the file.
    if (const auto header = parse_header(data); header && header->session == session_) {
        valid_end = scan_records(data, header->bytes, [this](const RecordView& rec) {
            recovered_.last_seq = std::max(recovered_.last_seq, rec.seq);
            ++recovered_.records_scanned;
            if (rec.type == RecordType::kSnapshot) {
                // A snapshot supersedes everything before it.
                recovered_.snapshot.assign(rec.body.begin(), rec.body.end());
                recovered_.snapshot_seq = rec.seq;
                recovered_.tail.clear();
            } else {
                recovered_.tail.push_back(rec.copy());
            }
        });
    } else if (!data.empty()) {
        journal_metrics().torn.inc();
    }

    if (valid_end == 0) {
        // Empty or headerless file: (re)write a fresh header.
        if (::ftruncate(fd_, 0) != 0) {
            journal_metrics().errors.inc();
            return Status{ErrorCode::kTransport, "journal truncate failed: " + path_};
        }
        const std::vector<std::uint8_t> header = header_of(session_);
        if (::lseek(fd_, 0, SEEK_SET) < 0 ||
            !write_all(fd_, header, /*allow_fault=*/false)) {
            journal_metrics().errors.inc();
            return Status{ErrorCode::kTransport, "journal header write failed: " + path_};
        }
        file_bytes_ = header.size();
    } else {
        if (valid_end < data.size()) {
            // Torn tail: drop it so the next append starts on a boundary.
            recovered_.torn_bytes = data.size() - valid_end;
            journal_metrics().torn.inc();
            if (::ftruncate(fd_, static_cast<::off_t>(valid_end)) != 0) {
                journal_metrics().errors.inc();
                return Status{ErrorCode::kTransport, "journal tail truncate failed: " + path_};
            }
        }
        if (::lseek(fd_, static_cast<::off_t>(valid_end), SEEK_SET) < 0) {
            journal_metrics().errors.inc();
            return Status{ErrorCode::kTransport, "journal seek failed: " + path_};
        }
        file_bytes_ = valid_end;
    }

    next_seq_ = recovered_.last_seq + 1;
    journal_metrics().recovered.inc(recovered_.records_scanned);
    failed_ = false;
    return Status::ok();
}

Status SessionJournal::write_all(int fd, std::span<const std::uint8_t> data, bool allow_fault) {
    std::size_t limit = data.size();
    bool fault = false;
    if (allow_fault && faults_.short_writes > 0) {
        --faults_.short_writes;
        limit = data.size() / 2;
        fault = true;
    }
    std::size_t off = 0;
    while (off < limit) {
        const ::ssize_t n = ::write(fd, data.data() + off, limit - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            return Status{ErrorCode::kTransport,
                          std::string{"journal write failed: "} + std::strerror(errno)};
        }
        off += static_cast<std::size_t>(n);
    }
    if (fault) {
        return Status{ErrorCode::kTransport, "journal write failed: injected short write"};
    }
    return Status::ok();
}

Status SessionJournal::do_fsync(int fd) {
    if (faults_.fail_fsyncs > 0) {
        --faults_.fail_fsyncs;
        return Status{ErrorCode::kTransport, "journal fsync failed: injected fault"};
    }
    journal_metrics().fsyncs.inc();
    if (::fsync(fd) != 0) {
        return Status{ErrorCode::kTransport,
                      std::string{"journal fsync failed: "} + std::strerror(errno)};
    }
    return Status::ok();
}

std::uint64_t SessionJournal::append_record(RecordType type, std::uint32_t origin,
                                            std::span<const std::uint8_t> body) {
    if (fd_ < 0 || failed_) return 0;
    const std::uint64_t seq = next_seq_;
    if (faults_.before_append) faults_.before_append();

    std::vector<std::uint8_t> framed;
    append_framed(framed, type, seq, origin, body);
    const Status written = write_all(fd_, framed, /*allow_fault=*/true);
    if (!written) {
        // A partial record is exactly what recovery's torn-tail scan handles;
        // stop appending so later records cannot land after the tear.
        failed_ = true;
        journal_metrics().errors.inc();
        return 0;
    }
    file_bytes_ += framed.size();
    ++next_seq_;
    ++appends_;
    journal_metrics().appends.inc();
    journal_metrics().bytes.inc(framed.size());
    if (options_.fsync == FsyncPolicy::kAlways) {
        if (!do_fsync(fd_)) {
            failed_ = true;
            journal_metrics().errors.inc();
        }
    }
    return seq;
}

std::uint64_t SessionJournal::append_frame(std::uint32_t origin, std::span<const std::uint8_t> frame) {
    return append_record(RecordType::kFrame, origin, frame);
}

std::uint64_t SessionJournal::append_detach(std::uint32_t instance) {
    return append_record(RecordType::kDetach, instance, {});
}

Status SessionJournal::sync() {
    if (fd_ < 0) return Status::ok();
    if (options_.fsync == FsyncPolicy::kNever) return Status::ok();
    const Status s = do_fsync(fd_);
    if (!s) journal_metrics().errors.inc();
    return s;
}

bool SessionJournal::should_compact() const noexcept {
    return fd_ >= 0 && !failed_ && options_.compact_bytes > 0 &&
           file_bytes_ >= options_.compact_bytes;
}

Status SessionJournal::compact(std::span<const std::uint8_t> snapshot_image) {
    if (fd_ < 0) return Status{ErrorCode::kTransport, "journal not open"};
    const std::string tmp = path_ + ".tmp";
    const int tmp_fd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (tmp_fd < 0) {
        journal_metrics().errors.inc();
        return Status{ErrorCode::kTransport, "journal compact open failed: " + tmp};
    }

    // The snapshot record adopts the current last_seq: it summarizes exactly
    // the records it replaces, and the sequence continues unbroken.
    std::vector<std::uint8_t> out = header_of(session_);
    append_framed(out, RecordType::kSnapshot, last_seq(), 0, snapshot_image);

    Status s = write_all(tmp_fd, out, /*allow_fault=*/false);
    if (s && options_.fsync != FsyncPolicy::kNever) s = do_fsync(tmp_fd);
    ::close(tmp_fd);
    if (!s) {
        ::unlink(tmp.c_str());
        journal_metrics().errors.inc();
        return s;
    }
    if (::rename(tmp.c_str(), path_.c_str()) != 0) {
        ::unlink(tmp.c_str());
        journal_metrics().errors.inc();
        return Status{ErrorCode::kTransport, "journal compact rename failed: " + path_};
    }

    // Swap the append fd to the new file.
    const int new_fd = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
    if (new_fd < 0) {
        journal_metrics().errors.inc();
        return Status{ErrorCode::kTransport, "journal reopen failed: " + path_};
    }
    if (::lseek(new_fd, 0, SEEK_END) < 0) {
        ::close(new_fd);
        journal_metrics().errors.inc();
        return Status{ErrorCode::kTransport, "journal reopen seek failed: " + path_};
    }
    ::close(fd_);
    fd_ = new_fd;
    file_bytes_ = out.size();
    failed_ = false;
    journal_metrics().compactions.inc();
    return Status::ok();
}

void SessionJournal::set_faults(const JournalFaults& faults) { faults_ = faults; }

std::optional<std::string> SessionJournal::read_session_name(const std::string& path) {
    std::vector<std::uint8_t> data;
    const auto header =
        read_file(path, data, kHeaderFixedBytes + kMaxSessionNameBytes) ? parse_header(data) : std::nullopt;
    if (!header) return std::nullopt;
    return std::string{header->session};
}

std::vector<SessionJournal::Record> SessionJournal::read_records(const std::string& path, std::size_t last) {
    std::vector<std::uint8_t> data;
    const auto header = read_file(path, data) ? parse_header(data) : std::nullopt;
    if (!header || last == 0) return {};
    // Keep views of the newest `last` records; only those bodies are copied.
    std::deque<RecordView> kept;
    scan_records(data, header->bytes, [&](const RecordView& rec) {
        if (kept.size() == last) kept.pop_front();
        kept.push_back(rec);
    });
    std::vector<Record> out;
    out.reserve(kept.size());
    for (const RecordView& rec : kept) out.push_back(rec.copy());
    return out;
}

}  // namespace cosoft::server
