#include "fleet/collector.hh"

#include "obs/trace.hh"
#include "support/logging.hh"

namespace stm::fleet
{

Collector::Collector(Fold fold)
    : fold_(std::move(fold)), stats_("fleet.collector"),
      received_(stats_.counter("received")),
      accepted_(stats_.counter("accepted")),
      duplicates_(stats_.counter("duplicates")),
      decodeErrors_(stats_.counter("decode_errors"))
{
}

IngestStatus
Collector::refuse(FrameStatus status)
{
    obs::traceInstant(obs::TraceCategory::Fleet,
                      obs::TraceId::FleetDecodeError,
                      static_cast<std::uint64_t>(status));
    ++decodeErrors_;
    ++stats_.counter(
        strfmt("decode_error.{}", frameStatusName(status)));
    return IngestStatus::DecodeError;
}

IngestStatus
Collector::ingest(const std::uint8_t *data, std::size_t size)
{
    ++received_;
    RunProfileView view;
    FrameStatus status = decodeFrameView(data, size, &view);
    if (status != FrameStatus::Ok)
        return refuse(status);

    // The canonical fingerprint is FNV over the payload encoding, and
    // a valid frame *is* that encoding: hash the bytes in place.
    std::uint64_t print =
        fingerprintPayload(view.payload(), view.payloadSize());
    if (!fold_(view, print)) {
        obs::traceInstant(obs::TraceCategory::Fleet,
                          obs::TraceId::FleetDuplicate, print);
        ++duplicates_;
        return IngestStatus::Duplicate;
    }
    obs::traceInstant(obs::TraceCategory::Fleet,
                      obs::TraceId::FleetIngest, print);
    ++accepted_;
    return IngestStatus::Accepted;
}

IngestStatus
Collector::submit(const RunProfile &profile)
{
    std::size_t frameSize = encodedFrameSize(profile);
    // The cap ingest() enforces, checked before encoding a frame it
    // would refuse.
    if (frameSize - kFrameHeaderSize > kWireMaxPayload) {
        ++received_;
        return refuse(FrameStatus::Malformed);
    }
    frame_.resize(frameSize);
    serializeInto(profile, frame_.data());
    return ingest(frame_.data(), frame_.size());
}

} // namespace stm::fleet
