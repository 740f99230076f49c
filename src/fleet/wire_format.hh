/**
 * @file
 * The fleet wire format: what one deployed machine sends home after a
 * monitored run.
 *
 * The paper's deployment story (Section 5.2, Figure 8) is a fleet of
 * production machines each contributing one tiny LBR/LCR profile per
 * failure (and per success-site pass); diagnosis quality comes from
 * aggregating ~10 + ~10 such profiles across machines. A RunProfile
 * is that report: the ring contents captured at the failure/success
 * site plus just enough identity (bug id, machine id, run seed) for
 * the collection service to group, deduplicate, and label it.
 *
 * The encoding is one support/frame_codec frame (magic "STMP"); this
 * file owns only the payload schema:
 *
 *   machineId u64, runSeed u64, bugId (u32 length + bytes),
 *   failure u8, kind u8, site u32, thread u32, step u64,
 *   lbrCount u32 + 23-byte records, lcrCount u32 + 10-byte records
 *
 * Decoding is strict: payloads over kWireMaxPayload, counts that
 * overrun the buffer, trailing bytes and out-of-range enum bytes are
 * Malformed. A decoder must never crash or misread on hostile bytes:
 * reports cross the network from machines we do not control.
 *
 * Two decode shapes share that discipline:
 *
 *  - deserialize() materializes an owning RunProfile (vectors,
 *    string) — the compatibility/API-boundary path.
 *  - decodeFrameView() fills a non-owning RunProfileView over the
 *    frame bytes: scalars are decoded into the view, the LBR/LCR
 *    records stay encoded in place and are unpacked register-to-
 *    register on access. This is the collector's intake path — no
 *    allocation, no byte copy, same FrameStatus partition as
 *    deserialize() on any input.
 *
 * Producers can also encode without intermediate buffers:
 * encodedFrameSize() is exact, and serializeInto() writes the frame
 * directly into caller memory; restampFrame() rewrites an encoded
 * frame's machine and seed, so a producer that clones one report
 * many times encodes it once. The canonical fingerprint — FNV-1a
 * over the encoded payload — is computed by streaming the encoder
 * into the hash, so fingerprint(profile) never allocates either;
 * fingerprintPayload() gives the same value from already-encoded
 * payload bytes, which is what the collector uses so the intake
 * hashes each byte exactly once.
 */

#ifndef STM_FLEET_WIRE_FORMAT_HH
#define STM_FLEET_WIRE_FORMAT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hw/lbr.hh"
#include "hw/lcr.hh"
#include "support/checksum.hh"
#include "support/frame_codec.hh"
#include "vm/run_result.hh"

namespace stm::fleet
{

/**
 * Largest payload a frame may carry. A report is a few hundred bytes,
 * so a longer length field is corruption or hostility; the WAL reader
 * refuses longer records with the same bound, so every frame the
 * collector accepts is one its recovery can replay.
 */
constexpr std::uint32_t kWireMaxPayload = 64u << 20;

/** Magic "STMP" (STM Profile); bump the version on any layout change. */
constexpr FrameSpec kWireFrame{0x504D5453u, 1, kWireMaxPayload};

/** Encoded sizes of the fixed-width payload pieces. */
constexpr std::size_t kWireLbrRecordSize = 23;
constexpr std::size_t kWireLcrRecordSize = 10;

/** One machine's report of one monitored run. */
struct RunProfile
{
    /** Reporting machine (dense fleet index in the simulator). */
    std::uint64_t machineId = 0;
    /** The seed that makes the run replayable on the vendor side. */
    std::uint64_t runSeed = 0;
    /** Corpus bug / deployment campaign this report belongs to. */
    std::string bugId;
    /** True for a failure-site capture, false for a success-site one. */
    bool failure = true;
    /** Which hardware record the snapshot came from. */
    ProfileKind kind = ProfileKind::Lbr;
    /** Log site the snapshot was captured at. */
    LogSiteId site = kSegfaultSite;
    /** Reporting thread and global step at capture time. */
    ThreadId thread = 0;
    std::uint64_t step = 0;
    /** Ring contents, newest first (exactly one is non-empty). */
    std::vector<BranchRecord> lbr;
    std::vector<LcrRecord> lcr;

    bool operator==(const RunProfile &) const = default;
};

/**
 * Non-owning decoded view of one wire frame. Scalar fields are
 * unpacked at decode time; the LBR/LCR records stay in their encoded
 * form inside the caller's buffer and are decoded per access (a
 * handful of register loads, no allocation). The view is valid only
 * while the underlying frame bytes are.
 */
class RunProfileView
{
  public:
    std::uint64_t machineId() const { return machineId_; }
    std::uint64_t runSeed() const { return runSeed_; }
    std::string_view bugId() const { return bugId_; }
    bool failure() const { return failure_; }
    ProfileKind kind() const { return kind_; }
    LogSiteId site() const { return site_; }
    ThreadId thread() const { return thread_; }
    std::uint64_t step() const { return step_; }

    std::size_t lbrSize() const { return lbrCount_; }
    std::size_t lcrSize() const { return lcrCount_; }

    /** Decode the i-th LBR record in place. @pre i < lbrSize() */
    BranchRecord lbr(std::size_t i) const;

    /** Decode the i-th LCR record in place. @pre i < lcrSize() */
    LcrRecord lcr(std::size_t i) const;

    /** The encoded payload bytes (the fingerprint domain). */
    const std::uint8_t *payload() const { return payload_; }
    std::size_t payloadSize() const { return payloadLen_; }

    /** The whole frame a decoded view aliases: header, then payload. */
    const std::uint8_t *frame() const { return payload_ - kFrameHeaderSize; }
    std::size_t frameSize() const { return kFrameHeaderSize + payloadLen_; }

    /** Copy out an owning RunProfile (the API-boundary escape). */
    RunProfile materialize() const;

  private:
    friend FrameStatus decodeFrameView(const std::uint8_t *,
                                       std::size_t, RunProfileView *);

    const std::uint8_t *payload_ = nullptr;
    std::size_t payloadLen_ = 0;
    const std::uint8_t *lbrBytes_ = nullptr;
    const std::uint8_t *lcrBytes_ = nullptr;
    std::uint32_t lbrCount_ = 0;
    std::uint32_t lcrCount_ = 0;
    std::uint64_t machineId_ = 0;
    std::uint64_t runSeed_ = 0;
    std::uint64_t step_ = 0;
    std::string_view bugId_;
    LogSiteId site_ = kSegfaultSite;
    ThreadId thread_ = 0;
    bool failure_ = true;
    ProfileKind kind_ = ProfileKind::Lbr;
};

/** Encode @p profile into a self-contained frame. */
std::vector<std::uint8_t> serialize(const RunProfile &profile);

/** Exact encoded payload / frame size of @p profile. */
std::size_t encodedPayloadSize(const RunProfile &profile);

inline std::size_t
encodedFrameSize(const RunProfile &profile)
{
    return kFrameHeaderSize + encodedPayloadSize(profile);
}

/**
 * Encode @p profile directly into caller memory, which must have room
 * for encodedFrameSize(profile) bytes. Returns the frame size written.
 */
std::size_t serializeInto(const RunProfile &profile,
                          std::uint8_t *out);

/**
 * Rewrite the machineId and runSeed of the encoded frame @p frame
 * (@p size bytes, as serialize() wrote it) and reseal it. The result
 * is byte-identical to serialize() of the profile with those two
 * fields replaced: they are the payload's first 16 bytes.
 */
void restampFrame(std::uint8_t *frame, std::size_t size,
                  std::uint64_t machine_id, std::uint64_t run_seed);

/**
 * Decode one frame. On success fills @p out and returns Ok; on any
 * failure @p out is untouched and the status says why. @p size may
 * exceed the frame (trailing garbage is Malformed, never misread).
 */
FrameStatus deserialize(const std::uint8_t *data, std::size_t size,
                        RunProfile *out);

/** Convenience overload. */
inline FrameStatus
deserialize(const std::vector<std::uint8_t> &wire, RunProfile *out)
{
    return deserialize(wire.data(), wire.size(), out);
}

/**
 * Decode one frame into a non-owning view. Exactly the hostile-byte
 * discipline of deserialize() — identical FrameStatus for any input —
 * but no allocation and no byte copy; @p out aliases @p data.
 */
FrameStatus decodeFrameView(const std::uint8_t *data, std::size_t size,
                            RunProfileView *out);

/**
 * Canonical 64-bit fingerprint of @p profile: FNV-1a over the
 * canonical payload encoding, computed by streaming the encoder into
 * the hash (no buffer, no allocation). Equal profiles fingerprint
 * equally on every machine; any field difference changes the
 * fingerprint (up to hash collision). Used for duplicate suppression
 * (the collector's and the durable store's key).
 */
std::uint64_t fingerprint(const RunProfile &profile);

/** The same fingerprint from already-encoded payload bytes. */
inline std::uint64_t
fingerprintPayload(const std::uint8_t *payload, std::size_t size)
{
    return fnv1a(payload, size);
}

/**
 * Build the RunProfile for one captured ProfileRecord of a finished
 * run (the glue between the VM's RunResult and the wire).
 */
RunProfile profileOfRecord(const ProfileRecord &record,
                           const std::string &bug_id,
                           std::uint64_t machine_id,
                           std::uint64_t run_seed, bool failure);

} // namespace stm::fleet

#endif // STM_FLEET_WIRE_FORMAT_HH
