/**
 * @file
 * Disk tier for compiled artifacts: an append-only log + in-memory
 * index.
 *
 * File layout:
 *
 *   [u32 store magic "QST1"] [u32 artifact format version]
 *   [frame] [frame] ...
 *
 * where each frame is
 *
 *   [u32 frame magic "QREC"] [u64 body length] [u32 CRC-32 of body]
 *   [body = encoded ArtifactKey + encoded CompileResult record]
 *
 * Appends are write-behind from the service's miss path, so the log is
 * allowed to end in a torn frame (a crash mid-append). open() scans
 * from the front, indexes every intact frame, stops at the first bad
 * one (short, wrong magic, oversized length, checksum mismatch) and
 * truncates the file back to the intact prefix so subsequent appends
 * stay clean. A read that fails with an errno is not a bad frame: it
 * ends the open with a FatalError and leaves the file untouched, so a
 * transient read error never deletes acknowledged records. A
 * store-header version mismatch truncates the whole file: artifacts
 * are caches of deterministic compiles, so starting cold is always
 * safe, and guessing at a foreign layout never is.
 *
 * Re-putting a key appends a new frame and repoints the index; the
 * last frame wins on recovery too. The superseded frame stays on disk:
 * the service never re-puts a key (its write-behind is gated on
 * contains()), so there is nothing to reclaim.
 *
 * Failure seams: every syscall the store makes (open, fstat, pread,
 * pwrite, fsync, ftruncate, close) goes through a named fault point
 * (common/faultpoint.hh, "store.<syscall>"), so the fault-matrix tests
 * can fail any call at any index and prove the outcome is always a
 * false return or a FatalError -- never a PanicError, a crash, or a
 * corrupted log. EINTR from pread/pwrite/open/fsync is retried
 * transparently; it is an interruption, not a failure. put() and
 * loadStatus() report failures by return value -- the signal the
 * service's disk-tier circuit breaker trips on.
 *
 * Durability: by default (FsyncPolicy::Never) appends are not synced
 * -- the log is a cache and the torn-tail recovery above bounds the
 * loss to un-synced frames. FsyncPolicy::Always fsyncs after every
 * append; Interval fsyncs once at least fsyncIntervalBytes have been
 * appended since the last sync.
 *
 * All methods are thread-safe behind one mutex; reads use pread so
 * concurrent loads never race on a shared file position.
 */

#ifndef QOMPRESS_SERVICE_ARTIFACT_STORE_HH
#define QOMPRESS_SERVICE_ARTIFACT_STORE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/serialize.hh"

namespace qompress {

/** When the store fsyncs its log (see the file comment). */
enum class FsyncPolicy
{
    Never,    ///< never sync appends (recovery bounds the loss)
    Interval, ///< sync once per fsyncIntervalBytes of appends
    Always,   ///< sync after every append (acknowledged == durable)
};

/** Parse "never" | "interval" | "always"; throws FatalError else. */
FsyncPolicy fsyncPolicyFromString(const std::string &name);

/** Store construction knobs. */
struct StoreOptions
{
    FsyncPolicy fsync = FsyncPolicy::Never;

    /** Appended bytes between syncs under FsyncPolicy::Interval. */
    std::uint64_t fsyncIntervalBytes = 1 << 20;
};

/** Tri-state load outcome: a Miss proves nothing about disk health,
 *  an Error does -- the circuit breaker needs the distinction. */
enum class StoreStatus
{
    Ok,    ///< key present, blob read
    Miss,  ///< key absent (no I/O performed)
    Error, ///< key present but the read failed (disk trouble)
};

class ArtifactStore
{
  public:
    /**
     * Open (creating if absent) the log at @p path and index its
     * intact prefix. Throws FatalError if the file cannot be opened,
     * created or read -- that is user configuration or disk trouble,
     * not corruption, and the file is left as it was.
     */
    explicit ArtifactStore(std::string path, StoreOptions opts = {});
    ~ArtifactStore();

    ArtifactStore(const ArtifactStore &) = delete;
    ArtifactStore &operator=(const ArtifactStore &) = delete;

    /**
     * Append @p blob (an encodeCompileResult record) under @p key.
     * Returns false -- without throwing -- if the disk write (or a
     * required fsync) fails; persistence is best-effort and must
     * never take the service down.
     */
    bool put(const ArtifactKey &key, const std::vector<std::uint8_t> &blob);

    /**
     * Fetch the blob stored under @p key into @p out, reporting
     * whether a false outcome was an absence or an I/O failure.
     */
    StoreStatus loadStatus(const ArtifactKey &key,
                           std::vector<std::uint8_t> &out);

    /** loadStatus collapsed to a bool (absence == failure). */
    bool load(const ArtifactKey &key, std::vector<std::uint8_t> &out)
    {
        return loadStatus(key, out) == StoreStatus::Ok;
    }

    bool contains(const ArtifactKey &key);

    /**
     * Cheap health probe: re-read the 8-byte store header and verify
     * the magic. True means the disk answered correctly just now --
     * the signal a degraded tier re-closes its breaker on.
     */
    bool probe();

    /** Live (indexed) records. */
    std::size_t records();

    /** Current log size in bytes (header + all frames, superseded
     *  ones included). */
    std::uint64_t bytesOnDisk();

  private:
    struct Slot
    {
        std::uint64_t offset; ///< of the blob within the file
        std::uint64_t size;   ///< blob byte count
    };

    void openAndRecoverLocked();
    bool syncAppendLocked(std::uint64_t appended);

    std::string path_;
    StoreOptions opts_;
    std::mutex mu_;
    int fd_ = -1;
    std::uint64_t end_ = 0; ///< append offset == intact byte count
    std::uint64_t unsynced_ = 0; ///< appended since the last fsync
    std::unordered_map<ArtifactKey, Slot, ArtifactKeyHash> index_;
};

} // namespace qompress

#endif // QOMPRESS_SERVICE_ARTIFACT_STORE_HH
