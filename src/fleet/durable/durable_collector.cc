#include "fleet/durable/durable_collector.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "support/logging.hh"

namespace stm::fleet
{

std::string
snapshotFileName(std::uint64_t collector_id, std::uint64_t epoch)
{
    char name[64];
    std::snprintf(name, sizeof name, "snap-%llu-%08llu.stms",
                  static_cast<unsigned long long>(collector_id),
                  static_cast<unsigned long long>(epoch));
    return name;
}

std::vector<std::string>
listSnapshotFiles(const std::string &dir)
{
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir, ec)) {
        std::string name = entry.path().filename().string();
        if (name.size() > 5 &&
            name.substr(name.size() - 5) == ".stms") {
            paths.push_back(entry.path().string());
        }
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

MergeResult
mergeSnapshotDir(const std::string &dir)
{
    MergeResult result;
    for (const std::string &path : listSnapshotFiles(dir)) {
        RankerSnapshot snap;
        if (RankerSnapshot::readFile(path, &snap) !=
            FrameStatus::Ok) {
            ++result.filesSkipped;
            continue;
        }
        result.merged.merge(std::move(snap));
        ++result.filesMerged;
    }
    return result;
}

DurableCollector::DurableCollector(const DurableOptions &opts)
    : dir_(opts.dir), collectorId_(opts.collectorId),
      collector_([this](const RunProfileView &view,
                        std::uint64_t print) {
          return fold(view, print);
      }),
      stats_(strfmt("fleet.durable{}", opts.collectorId))
{
    if (collectorId_ == 0)
        fatal("durable collector id must be >= 1 (0 is the merge "
              "identity)");
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    recover();
    // Only now open the WAL: the writer claims a fresh segment, and
    // replay above must never race with (or read) it.
    wal_ = std::make_unique<WalWriter>(dir_, collectorId_,
                                       opts.walRotateBytes);
}

bool
DurableCollector::fold(const RunProfileView &view, std::uint64_t print)
{
    auto [it, inserted] = store_.reports_.try_emplace(print);
    if (!inserted)
        return false;
    wal_->append(epoch_, view.frame(), view.frameSize());
    it->second = digestOfView(view);
    return true;
}

void
DurableCollector::recover()
{
    // Newest decodable snapshot wins; older ones (left by a crash
    // between write and prune) and corrupt ones are skipped. File
    // names sort by epoch, so walk descending.
    std::vector<std::string> snaps = listSnapshotFiles(dir_);
    std::string prefix =
        dir_ + "/snap-" + std::to_string(collectorId_) + "-";
    RankerSnapshot snap;
    bool haveSnap = false;
    for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
        if (it->rfind(prefix, 0) != 0)
            continue;
        if (RankerSnapshot::readFile(*it, &snap) == FrameStatus::Ok) {
            haveSnap = true;
            break;
        }
    }

    std::uint64_t baseEpoch = 0;
    if (haveSnap) {
        recovery_.snapshotLoaded = true;
        recovery_.snapshotEpoch = snap.epoch();
        recovery_.snapshotReports = snap.reportCount();
        baseEpoch = snap.epoch();
        epoch_ = snap.epoch() + 1;
        store_ = std::move(snap);
    }

    // Replay the WAL tail: records from epochs the snapshot covers
    // are skipped (their reports are already in the store); younger
    // records re-validate and join the store through the digest an
    // uninterrupted ingest would have folded.
    WalReplayResult replay = replayWalDir(
        dir_, collectorId_, [&](const WalRecord &rec) {
            if (haveSnap && rec.epoch <= baseEpoch) {
                ++recovery_.walRecordsCovered;
                return;
            }
            RunProfileView view;
            if (decodeFrameView(rec.frame.data(), rec.frame.size(),
                                &view) != FrameStatus::Ok) {
                return; // WAL CRC passed but frame is hostile: skip
            }
            auto [it, inserted] = store_.reports_.try_emplace(
                fingerprintPayload(view.payload(), view.payloadSize()));
            if (inserted)
                it->second = digestOfView(view);
            ++recovery_.walRecordsReplayed;
            epoch_ = std::max(epoch_, rec.epoch);
        });
    recovery_.walTail = replay.status;

    recovery_.recovered =
        haveSnap || recovery_.walRecordsReplayed != 0 ||
        recovery_.walRecordsCovered != 0;
    recovery_.resumedEpoch = epoch_;
}

const RankerSnapshot &
DurableCollector::rollEpoch()
{
    store_.collectorId_ = collectorId_;
    store_.epoch_ = epoch_;
    wal_->flush();
    std::string path = snapshotPath(epoch_);
    std::size_t bytes = 0;
    if (!store_.writeFile(path, &bytes))
        fatal("cannot write snapshot {}", path);
    lastSnapshotBytes_ = bytes;
    ++snapshotsWritten_;
    // Whole-store snapshot: everything at epochs <= epoch_ is
    // covered, so all non-active segments up to it are garbage, and
    // so are older snapshot files.
    segmentsPruned_ += wal_->prune(epoch_);
    std::string prefix =
        dir_ + "/snap-" + std::to_string(collectorId_) + "-";
    for (const std::string &old : listSnapshotFiles(dir_)) {
        if (old.rfind(prefix, 0) == 0 && old != path)
            std::remove(old.c_str());
    }
    ++epochsRolled_;
    ++epoch_;
    return store_;
}

std::string
DurableCollector::snapshotPath(std::uint64_t epoch) const
{
    return dir_ + "/" + snapshotFileName(collectorId_, epoch);
}

const StatGroup &
DurableCollector::stats() const
{
    auto publish = [&](const std::string &name, std::uint64_t v) {
        Counter &c = stats_.counter(name);
        c.reset();
        c += v;
    };
    publish("epochs_rolled", epochsRolled_);
    publish("snapshots_written", snapshotsWritten_);
    publish("frames_spilled",
            wal_ ? wal_->recordsAppended() : 0);
    publish("wal_segments", wal_ ? wal_->segmentsOpened() : 0);
    publish("segments_pruned", segmentsPruned_);
    publish("replayed_frames", recovery_.walRecordsReplayed);
    publish("recoveries", recovery_.recovered ? 1 : 0);
    stats_.gauge("wal_bytes")
        .set(static_cast<double>(wal_ ? wal_->bytesAppended() : 0));
    stats_.gauge("snapshot_bytes")
        .set(static_cast<double>(lastSnapshotBytes_));
    stats_.gauge("stored_reports")
        .set(static_cast<double>(store_.reportCount()));
    stats_.gauge("epoch").set(static_cast<double>(epoch_));
    return stats_;
}

} // namespace stm::fleet
