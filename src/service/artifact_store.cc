#include "service/artifact_store.hh"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/error.hh"
#include "common/faultpoint.hh"

namespace qompress {

namespace {

/** "QST1": identifies a file as an artifact log. */
constexpr std::uint32_t kStoreMagic = 0x31545351u;

/** "QREC": leads every frame; a cheap resync sentinel for recovery. */
constexpr std::uint32_t kFrameMagic = 0x43455251u;

/** Frame prefix: magic + body length + body CRC. */
constexpr std::uint64_t kFrameHeaderBytes = 16;

/** Store prefix: magic + artifact format version. */
constexpr std::uint64_t kStoreHeaderBytes = 8;

// Every syscall below consults its named fault point first, so the
// fault-matrix tests can fail any call at any index. A fired Eintr is
// delivered as -1/EINTR (the retry loops absorb it); a fired ShortIo
// on a transfer clips the byte count (still a successful syscall); a
// fired ShortIo on a non-transfer call degrades to a plain failure.

int
xopen(const char *path, int flags, mode_t mode)
{
    for (;;) {
        const FaultFire f = QFAULT_POINT("store.open");
        if (f.fired && f.kind == FaultKind::Eintr)
            continue;
        if (f.fired) {
            errno = f.err;
            return -1;
        }
        const int fd = ::open(path, flags, mode);
        if (fd < 0 && errno == EINTR)
            continue;
        return fd;
    }
}

int
xfstat(int fd, struct stat *st)
{
    const FaultFire f = QFAULT_POINT("store.fstat");
    if (f.fired) {
        errno = f.err;
        return -1;
    }
    return ::fstat(fd, st);
}

ssize_t
xpread(int fd, void *buf, std::size_t n, std::uint64_t off)
{
    const FaultFire f = QFAULT_POINT("store.pread");
    if (f.fired) {
        if (f.kind != FaultKind::ShortIo) {
            errno = f.err;
            return -1;
        }
        n = static_cast<std::size_t>(
            std::min<std::uint64_t>(n, f.bytes));
    }
    return ::pread(fd, buf, n, static_cast<off_t>(off));
}

ssize_t
xpwrite(int fd, const void *buf, std::size_t n, std::uint64_t off)
{
    const FaultFire f = QFAULT_POINT("store.pwrite");
    if (f.fired) {
        if (f.kind != FaultKind::ShortIo) {
            errno = f.err;
            return -1;
        }
        n = static_cast<std::size_t>(
            std::min<std::uint64_t>(n, f.bytes));
    }
    return ::pwrite(fd, buf, n, static_cast<off_t>(off));
}

int
xfsync(int fd)
{
    for (;;) {
        const FaultFire f = QFAULT_POINT("store.fsync");
        if (f.fired && f.kind == FaultKind::Eintr)
            continue;
        if (f.fired) {
            errno = f.err;
            return -1;
        }
        const int rc = ::fsync(fd);
        if (rc != 0 && errno == EINTR)
            continue;
        return rc;
    }
}

int
xftruncate(int fd, std::uint64_t len)
{
    const FaultFire f = QFAULT_POINT("store.ftruncate");
    if (f.fired) {
        errno = f.err;
        return -1;
    }
    return ::ftruncate(fd, static_cast<off_t>(len));
}

int
xclose(int fd)
{
    const FaultFire f = QFAULT_POINT("store.close");
    if (f.fired) {
        errno = f.err;
        return -1;
    }
    return ::close(fd);
}

/** How an exact read ended. */
enum class ReadEnd
{
    Full,  ///< every byte arrived
    Eof,   ///< the file ended first
    Error, ///< a pread failed; errno says why
};

ReadEnd
preadExact(int fd, void *buf, std::size_t n, std::uint64_t off)
{
    auto *p = static_cast<std::uint8_t *>(buf);
    while (n > 0) {
        const ssize_t got = xpread(fd, p, n, off);
        if (got < 0 && errno == EINTR)
            continue; // interrupted, not failed: retry the same range
        if (got < 0)
            return ReadEnd::Error;
        if (got == 0)
            return ReadEnd::Eof;
        p += got;
        off += static_cast<std::uint64_t>(got);
        n -= static_cast<std::size_t>(got);
    }
    return ReadEnd::Full;
}

bool
pwriteExact(int fd, const void *buf, std::size_t n, std::uint64_t off)
{
    const auto *p = static_cast<const std::uint8_t *>(buf);
    while (n > 0) {
        const ssize_t put = xpwrite(fd, p, n, off);
        if (put < 0 && errno == EINTR)
            continue; // interrupted, not failed: retry the same range
        if (put <= 0)
            return false;
        p += put;
        off += static_cast<std::uint64_t>(put);
        n -= static_cast<std::size_t>(put);
    }
    return true;
}

std::vector<std::uint8_t>
frameFor(const ArtifactKey &key, const std::vector<std::uint8_t> &blob)
{
    ByteWriter body;
    encodeArtifactKey(body, key);
    body.bytes(blob.data(), blob.size());

    ByteWriter frame;
    frame.u32(kFrameMagic);
    frame.u64(body.size());
    frame.u32(crc32(body.data().data(), body.size()));
    frame.bytes(body.data().data(), body.size());
    return frame.take();
}

} // namespace

FsyncPolicy
fsyncPolicyFromString(const std::string &name)
{
    if (name == "never")
        return FsyncPolicy::Never;
    if (name == "interval")
        return FsyncPolicy::Interval;
    if (name == "always")
        return FsyncPolicy::Always;
    QFATAL("unknown fsync policy '", name,
           "' (expected never|interval|always)");
}

ArtifactStore::ArtifactStore(std::string path, StoreOptions opts)
    : path_(std::move(path)), opts_(opts)
{
    std::lock_guard<std::mutex> lk(mu_);
    try {
        openAndRecoverLocked();
    } catch (...) {
        // No destructor runs for a constructor that throws.
        if (fd_ >= 0)
            (void)xclose(fd_);
        throw;
    }
}

ArtifactStore::~ArtifactStore()
{
    if (fd_ >= 0)
        (void)xclose(fd_); // nothing sane to do with a close failure
}

void
ArtifactStore::openAndRecoverLocked()
{
    fd_ = xopen(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    QFATAL_IF(fd_ < 0, "cannot open artifact store '", path_,
              "': ", std::strerror(errno));

    struct stat st;
    QFATAL_IF(xfstat(fd_, &st) != 0, "cannot stat artifact store '",
              path_, "': ", std::strerror(errno));
    const auto file_size = static_cast<std::uint64_t>(st.st_size);

    // A read that fails with an errno is disk trouble, not a torn
    // tail: truncating there would delete every acknowledged frame
    // behind it. End the open instead and leave the file as it is.
    auto scanRead = [&](void *buf, std::size_t n, std::uint64_t at) {
        const ReadEnd end = preadExact(fd_, buf, n, at);
        QFATAL_IF(end == ReadEnd::Error, "cannot read artifact store '",
                  path_, "': ", std::strerror(errno));
        return end == ReadEnd::Full;
    };

    // Header check. Anything but (our magic, our format version) means
    // the file is foreign or written by a different build: start cold.
    bool fresh = true;
    if (file_size >= kStoreHeaderBytes) {
        std::uint8_t hdr[kStoreHeaderBytes];
        if (scanRead(hdr, sizeof hdr, 0)) {
            ByteReader r(hdr, sizeof hdr, "artifact store header");
            fresh = r.u32() != kStoreMagic ||
                    r.u32() != kArtifactFormatVersion;
        }
    }
    if (fresh) {
        ByteWriter hdr;
        hdr.u32(kStoreMagic);
        hdr.u32(kArtifactFormatVersion);
        QFATAL_IF(xftruncate(fd_, 0) != 0 ||
                      !pwriteExact(fd_, hdr.data().data(), hdr.size(), 0),
                  "cannot initialize artifact store '", path_,
                  "': ", std::strerror(errno));
        end_ = kStoreHeaderBytes;
        return;
    }

    // Scan frames until the end of the file or the first bad frame.
    // Every check failure below is "torn tail": keep what came before.
    std::uint64_t off = kStoreHeaderBytes;
    while (off + kFrameHeaderBytes <= file_size) {
        std::uint8_t fh[kFrameHeaderBytes];
        if (!scanRead(fh, sizeof fh, off))
            break;
        ByteReader r(fh, sizeof fh, "artifact store frame");
        if (r.u32() != kFrameMagic)
            break;
        const std::uint64_t body_len = r.u64();
        const std::uint32_t declared_crc = r.u32();
        if (body_len > file_size - off - kFrameHeaderBytes)
            break;
        std::vector<std::uint8_t> body(body_len);
        if (!scanRead(body.data(), body.size(), off + kFrameHeaderBytes))
            break;
        if (crc32(body.data(), body.size()) != declared_crc)
            break;

        ArtifactKey key;
        try {
            ByteReader br(body.data(), body.size(),
                          "artifact store frame body");
            key = decodeArtifactKey(br);
            Slot slot;
            slot.offset = off + kFrameHeaderBytes +
                          (body.size() - br.remaining());
            slot.size = br.remaining();
            index_[key] = slot; // a later frame wins
        } catch (const FatalError &) {
            break; // CRC passed but the body is still malformed
        }
        off += kFrameHeaderBytes + body_len;
    }

    end_ = off;
    if (end_ < file_size) {
        // Drop the torn tail so future appends start on a clean
        // frame boundary. Failure here is not fatal: the scan already
        // ignores everything past end_, appends just go further out.
        if (xftruncate(fd_, end_) != 0)
            end_ = file_size;
    }
}

bool
ArtifactStore::syncAppendLocked(std::uint64_t appended)
{
    if (opts_.fsync == FsyncPolicy::Never)
        return true;
    unsynced_ += appended;
    if (opts_.fsync == FsyncPolicy::Interval &&
        unsynced_ < opts_.fsyncIntervalBytes)
        return true;
    if (xfsync(fd_) != 0)
        return false;
    unsynced_ = 0;
    return true;
}

bool
ArtifactStore::put(const ArtifactKey &key,
                   const std::vector<std::uint8_t> &blob)
{
    const std::vector<std::uint8_t> frame = frameFor(key, blob);
    std::lock_guard<std::mutex> lk(mu_);
    if (fd_ < 0)
        return false;
    if (!pwriteExact(fd_, frame.data(), frame.size(), end_)) {
        // A partial append leaves a torn tail; recovery handles it,
        // but trim now so this process's next put starts clean.
        (void)xftruncate(fd_, end_);
        return false;
    }
    if (!syncAppendLocked(frame.size())) {
        // The bytes are written but not durable; report failure (the
        // caller acknowledged nothing) and drop the frame so a false
        // put never leaves a record this process would serve.
        (void)xftruncate(fd_, end_);
        return false;
    }
    Slot slot;
    slot.size = blob.size();
    slot.offset = end_ + frame.size() - blob.size();
    index_[key] = slot;
    end_ += frame.size();
    return true;
}

StoreStatus
ArtifactStore::loadStatus(const ArtifactKey &key,
                          std::vector<std::uint8_t> &out)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (fd_ < 0)
        return StoreStatus::Error;
    const auto it = index_.find(key);
    if (it == index_.end())
        return StoreStatus::Miss;
    out.resize(it->second.size);
    return preadExact(fd_, out.data(), out.size(), it->second.offset) ==
                   ReadEnd::Full
               ? StoreStatus::Ok
               : StoreStatus::Error;
}

bool
ArtifactStore::contains(const ArtifactKey &key)
{
    std::lock_guard<std::mutex> lk(mu_);
    return index_.count(key) > 0;
}

bool
ArtifactStore::probe()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (fd_ < 0)
        return false;
    std::uint8_t hdr[kStoreHeaderBytes];
    if (preadExact(fd_, hdr, sizeof hdr, 0) != ReadEnd::Full)
        return false;
    ByteReader r(hdr, sizeof hdr, "artifact store header");
    return r.u32() == kStoreMagic && r.u32() == kArtifactFormatVersion;
}

std::size_t
ArtifactStore::records()
{
    std::lock_guard<std::mutex> lk(mu_);
    return index_.size();
}

std::uint64_t
ArtifactStore::bytesOnDisk()
{
    std::lock_guard<std::mutex> lk(mu_);
    return end_;
}

} // namespace qompress
