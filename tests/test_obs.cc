/**
 * @file
 * Tests for the observability layer (src/obs): recorder gating and
 * ring semantics, multithreaded recording, dump round-trips over
 * randomized event streams, golden bytes and targeted rejections on
 * the binary format (the every-byte sweeps live in
 * test_frame_codec.cc), Chrome JSON losslessness, and the stats
 * aggregation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <thread>

#include "obs/trace.hh"
#include "obs/trace_io.hh"
#include "support/random.hh"
#include "codec_cases.hh"
#include "test_util.hh"

namespace stm::obs
{
namespace
{

// Recorder state is process-global; every test starts from scratch.
class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setTracingEnabled(false);
        clearTrace();
    }

    void
    TearDown() override
    {
        setTracingEnabled(false);
        clearTrace();
        setTraceCapacity(65536);
    }
};

using test::randomEvent;
using test::randomStream;

// ---- recorder -----------------------------------------------------------

TEST_F(ObsTest, DisabledRecorderRecordsNothing)
{
    ASSERT_FALSE(tracingEnabled());
    traceInstant(TraceCategory::Vm, TraceId::VmRun, 1);
    {
        TraceSpan span(TraceCategory::Diag, TraceId::DiagRank);
    }
    EXPECT_TRUE(collectTrace().empty());
    EXPECT_EQ(traceEventsRecorded(), 0u);
}

TEST_F(ObsTest, RecordsEventsWhenEnabled)
{
    setTracingEnabled(true);
    traceInstant(TraceCategory::Fleet, TraceId::FleetDrop, 7);
    traceInstant(TraceCategory::Vm, TraceId::VmQuantum, 9);
    setTracingEnabled(false);

    std::vector<TraceEvent> events = collectTrace();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].id, TraceId::FleetDrop);
    EXPECT_EQ(events[0].phase, TracePhase::Instant);
    EXPECT_EQ(events[0].arg, 7u);
    EXPECT_EQ(events[1].id, TraceId::VmQuantum);
    EXPECT_LE(events[0].tsc, events[1].tsc);
    EXPECT_EQ(traceEventsRecorded(), 2u);
}

TEST_F(ObsTest, SpanEmitsMatchedBeginEnd)
{
    setTracingEnabled(true);
    {
        TraceSpan span(TraceCategory::Diag, TraceId::DiagPinSearch, 3);
        span.setArg(11);
    }
    setTracingEnabled(false);

    std::vector<TraceEvent> events = collectTrace();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].phase, TracePhase::Begin);
    EXPECT_EQ(events[0].arg, 3u); // Begin carries the initial arg
    EXPECT_EQ(events[1].phase, TracePhase::End);
    EXPECT_EQ(events[1].arg, 11u); // End carries setArg()
    EXPECT_EQ(events[0].id, TraceId::DiagPinSearch);
    EXPECT_EQ(events[1].id, TraceId::DiagPinSearch);
}

TEST_F(ObsTest, SpanArmedAtConstructionSurvivesMidScopeToggle)
{
    setTracingEnabled(true);
    {
        TraceSpan span(TraceCategory::Exec, TraceId::ExecBatch);
        setTracingEnabled(false);
        // The span was armed when tracing was on: its End must still
        // be recorded, never leaving an unmatched Begin behind.
    }
    std::vector<TraceEvent> events = collectTrace();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[1].phase, TracePhase::End);

    clearTrace();
    {
        TraceSpan span(TraceCategory::Exec, TraceId::ExecBatch);
        setTracingEnabled(true);
        // Armed while tracing was off: stays silent for its lifetime.
    }
    EXPECT_TRUE(collectTrace().empty());
}

TEST_F(ObsTest, RingKeepsNewestEvents)
{
    setTraceCapacity(16);
    setTracingEnabled(true);
    // The capacity applies to rings created after the call, and this
    // thread's ring may predate it (an earlier test recorded on it):
    // record on a fresh thread, whose ring is created now.
    std::thread recorder([] {
        for (std::uint64_t i = 0; i < 100; ++i)
            traceInstant(TraceCategory::Vm, TraceId::VmQuantum, i);
    });
    recorder.join();
    setTracingEnabled(false);

    std::vector<TraceEvent> events = collectTrace();
    ASSERT_EQ(events.size(), 16u);
    // Overwrite-oldest, exactly like the LBR: the survivors are the
    // most recent 16 args, oldest-first.
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].arg, 84 + i);
    EXPECT_EQ(traceEventsRecorded(), 100u);
}

TEST_F(ObsTest, CapacityIsClampedToMinimum)
{
    setTraceCapacity(1);
    EXPECT_GE(traceCapacity(), 16u);
}

TEST_F(ObsTest, MultithreadedRecordingKeepsEveryThread)
{
    constexpr int kThreads = 4;
    constexpr std::uint64_t kPerThread = 200;
    setTracingEnabled(true);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                traceInstant(TraceCategory::Exec,
                             TraceId::ExecTaskClaim,
                             t * kPerThread + i);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    setTracingEnabled(false);

    // Rings outlive their threads; the drain sees all of them.
    std::vector<TraceEvent> events = collectTrace();
    std::set<std::uint64_t> args;
    std::set<std::uint32_t> tids;
    for (const TraceEvent &e : events) {
        args.insert(e.arg);
        tids.insert(e.tid);
    }
    EXPECT_EQ(events.size(), kThreads * kPerThread);
    EXPECT_EQ(args.size(), kThreads * kPerThread);
    EXPECT_GE(tids.size(), static_cast<std::size_t>(kThreads));
    EXPECT_TRUE(std::is_sorted(
        events.begin(), events.end(),
        [](const TraceEvent &a, const TraceEvent &b) {
            return a.tsc < b.tsc ||
                   (a.tsc == b.tsc && a.tid < b.tid);
        }));
}

// ---- binary dump format -------------------------------------------------

TEST_F(ObsTest, EncodeDecodeRoundTripsRandomStreams)
{
    Pcg32 rng(test::testSeed(), 41);
    for (int iter = 0; iter < 50; ++iter) {
        std::vector<TraceEvent> events =
            randomStream(rng, rng.nextBounded(200));
        std::vector<std::uint8_t> dump = encodeTrace(events);
        EXPECT_EQ(dump.size(),
                  kFrameHeaderSize + 4 +
                      kTraceEventSize * events.size());

        std::vector<TraceEvent> decoded;
        ASSERT_EQ(decodeTrace(dump, &decoded), FrameStatus::Ok);
        EXPECT_EQ(decoded, events);
    }
}

TEST_F(ObsTest, EmptyTraceRoundTrips)
{
    std::vector<TraceEvent> decoded;
    ASSERT_EQ(decodeTrace(encodeTrace({}), &decoded),
              FrameStatus::Ok);
    EXPECT_TRUE(decoded.empty());
}

TEST_F(ObsTest, EncodePinsGoldenBytes)
{
    // A fixed two-event dump, encoded once and pinned byte for byte:
    // any encoder change must reproduce it.
    std::vector<TraceEvent> events{
        TraceEvent{0x0102030405060708ull, 3, TraceCategory::Fleet,
                   TracePhase::Begin, TraceId::VmQuantum, 0xAABBCCDDull},
        TraceEvent{0x0102030405060800ull, 3, TraceCategory::Diag,
                   TracePhase::End, TraceId::VmQuantum, 42},
    };
    const std::vector<std::uint8_t> golden = {
        // header: magic "STMT", version 1, flags 0, payloadLen, crc
        0x53, 0x54, 0x4D, 0x54, 0x01, 0x00, 0x00, 0x00,
        0x34, 0x00, 0x00, 0x00, 0x70, 0x72, 0x42, 0x07,
        // count 2
        0x02, 0x00, 0x00, 0x00,
        // tsc, tid, category, phase, id, arg
        0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
        0x03, 0x00, 0x00, 0x00, 0x02, 0x01, 0x01, 0x00,
        0xDD, 0xCC, 0xBB, 0xAA, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x08, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
        0x03, 0x00, 0x00, 0x00, 0x03, 0x02, 0x01, 0x00,
        0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
    };
    EXPECT_EQ(encodeTrace(events), golden);
    std::vector<TraceEvent> decoded;
    auto status = decodeTrace(golden, &decoded);
    EXPECT_EQ(status, decltype(status)::Ok);
    EXPECT_EQ(decoded, events);
    // Reserved flags must be 0, even under a valid CRC.
    std::vector<TraceEvent> untouched;
    EXPECT_EQ(decodeTrace(test::withFlags(golden, 1), &untouched),
              FrameStatus::Malformed);
    EXPECT_TRUE(untouched.empty());
}

TEST_F(ObsTest, TrailingBytesAreMalformed)
{
    std::vector<std::uint8_t> dump = encodeTrace({});
    dump.push_back(0);
    std::vector<TraceEvent> out;
    EXPECT_EQ(decodeTrace(dump, &out), FrameStatus::Malformed);
}

TEST_F(ObsTest, CountPayloadMismatchIsMalformed)
{
    // Hand-build a frame whose count disagrees with payloadLen but
    // whose CRC is valid: the strict count check must catch it.
    Pcg32 rng(test::testSeed(), 44);
    std::vector<TraceEvent> events = randomStream(rng, 3);
    std::vector<std::uint8_t> dump = encodeTrace(events);
    // Bump the count field (first payload u32) and re-seal.
    dump[kFrameHeaderSize] += 1;
    sealFrame(kTraceFrame, dump.data(), dump.size() - kFrameHeaderSize);

    std::vector<TraceEvent> out;
    EXPECT_EQ(decodeTrace(dump, &out), FrameStatus::Malformed);
}

TEST_F(ObsTest, OutOfRangeEnumIsMalformed)
{
    // Set each enum field of the first record to its last defined
    // value (Ok) and to one past it (Malformed), re-sealing so only
    // the enum check can reject it.
    struct Field
    {
        std::size_t at;
        unsigned count;
    };
    std::size_t record = kFrameHeaderSize + 4;
    for (Field f : {Field{record + 12, kTraceCategoryCount},
                    Field{record + 13, kTracePhaseCount},
                    Field{record + 14, kTraceIdCount}}) {
        for (unsigned v : {f.count - 1, f.count, 0xEEu}) {
            std::vector<std::uint8_t> dump = encodeTrace({TraceEvent{}});
            dump[f.at] = static_cast<std::uint8_t>(v);
            sealFrame(kTraceFrame, dump.data(),
                      dump.size() - kFrameHeaderSize);
            std::vector<TraceEvent> out;
            EXPECT_EQ(decodeTrace(dump, &out),
                      v < f.count ? FrameStatus::Ok
                                  : FrameStatus::Malformed)
                << "offset " << f.at << " value " << v;
        }
    }
}

TEST_F(ObsTest, VersionSkewIsDetectedBeforeCrc)
{
    std::vector<std::uint8_t> dump = encodeTrace({});
    dump[4] = static_cast<std::uint8_t>(kTraceFrame.version + 1);
    // Deliberately stale CRC: version must win over BadCrc.
    std::vector<TraceEvent> out;
    EXPECT_EQ(decodeTrace(dump, &out), FrameStatus::BadVersion);
}

TEST_F(ObsTest, FileRoundTripAndIoError)
{
    Pcg32 rng(test::testSeed(), 45);
    std::vector<TraceEvent> events = randomStream(rng, 32);
    std::string path = ::testing::TempDir() + "obs_roundtrip.stmt";
    ASSERT_EQ(writeTraceFile(path, events), FrameStatus::Ok);

    std::vector<TraceEvent> decoded;
    ASSERT_EQ(readTraceFile(path, &decoded), FrameStatus::Ok);
    EXPECT_EQ(decoded, events);

    EXPECT_EQ(readTraceFile(path + ".does-not-exist", &decoded),
              FrameStatus::IoError);
    EXPECT_EQ(writeTraceFile("/nonexistent-dir/x/y.stmt", events),
              FrameStatus::IoError);
}

// ---- Chrome export ------------------------------------------------------

TEST_F(ObsTest, ChromeJsonIsLossless)
{
    TraceEvent begin;
    begin.tsc = 1234567;
    begin.tid = 3;
    begin.category = TraceCategory::Diag;
    begin.phase = TracePhase::Begin;
    begin.id = TraceId::DiagPinSearch;
    begin.arg = 42;
    TraceEvent end = begin;
    end.tsc = 2345678;
    end.phase = TracePhase::End;
    TraceEvent instant;
    instant.tsc = 999;
    instant.tid = 0;
    instant.category = TraceCategory::Fleet;
    instant.phase = TracePhase::Instant;
    instant.id = TraceId::FleetDrop;
    instant.arg = 0xFFFFFFFFFFFFFFFFull;

    std::string json = chromeTraceJson({begin, end, instant});
    // One record per event, with phase letters and microsecond
    // timestamps derived from the nanosecond tsc.
    EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"diag.pin_search\""),
              std::string::npos);
    EXPECT_NE(json.find("\"cat\": \"diag\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\": 1234.567"), std::string::npos);
    EXPECT_NE(json.find("\"ts\": 2345.678"), std::string::npos);
    EXPECT_NE(json.find("\"ts\": 0.999"), std::string::npos);
    // Lossless: the exact tsc and arg ride in "args".
    EXPECT_NE(json.find("\"tsc\": 1234567"), std::string::npos);
    EXPECT_NE(json.find("\"arg\": 18446744073709551615"),
              std::string::npos);
    EXPECT_NE(json.find("\"tid\": 3"), std::string::npos);
}

TEST_F(ObsTest, ChromeJsonHandlesEmptyTrace)
{
    std::string json = chromeTraceJson({});
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

// ---- stats --------------------------------------------------------------

TEST_F(ObsTest, SummarizeMatchesSpansPerThread)
{
    auto ev = [](std::uint64_t tsc, std::uint32_t tid,
                 TracePhase phase, TraceId id) {
        TraceEvent e;
        e.tsc = tsc;
        e.tid = tid;
        e.category = TraceCategory::Exec;
        e.phase = phase;
        e.id = id;
        return e;
    };
    // Two threads interleaved: matching is per (tid, id), so t0's End
    // must not close t1's Begin. t0's nested spans match innermost
    // first.
    std::vector<TraceEvent> events{
        ev(100, 0, TracePhase::Begin, TraceId::ExecBatch),
        ev(150, 1, TracePhase::Begin, TraceId::ExecBatch),
        ev(200, 0, TracePhase::Begin, TraceId::ExecTask),
        ev(300, 0, TracePhase::End, TraceId::ExecTask),
        ev(400, 0, TracePhase::End, TraceId::ExecBatch),
        ev(450, 1, TracePhase::End, TraceId::ExecBatch),
        ev(500, 0, TracePhase::Instant, TraceId::ExecTaskClaim),
        ev(600, 1, TracePhase::End, TraceId::ExecTask), // orphan
    };
    std::vector<TraceIdStats> stats = summarizeTrace(events);

    auto find = [&](TraceId id) -> const TraceIdStats * {
        for (const TraceIdStats &s : stats)
            if (s.id == id)
                return &s;
        return nullptr;
    };
    const TraceIdStats *batch = find(TraceId::ExecBatch);
    ASSERT_NE(batch, nullptr);
    EXPECT_EQ(batch->spans, 2u);
    EXPECT_EQ(batch->unmatched, 0u);
    EXPECT_EQ(batch->totalNanos, (400 - 100) + (450 - 150));

    const TraceIdStats *task = find(TraceId::ExecTask);
    ASSERT_NE(task, nullptr);
    EXPECT_EQ(task->spans, 1u);
    EXPECT_EQ(task->unmatched, 1u); // t1's orphan End
    EXPECT_EQ(task->totalNanos, 100u);

    const TraceIdStats *claim = find(TraceId::ExecTaskClaim);
    ASSERT_NE(claim, nullptr);
    EXPECT_EQ(claim->instants, 1u);
    EXPECT_EQ(claim->spans, 0u);

    std::string table = traceStatsTable(events);
    EXPECT_NE(table.find("exec.batch"), std::string::npos);
    EXPECT_NE(table.find("exec.task"), std::string::npos);
}

TEST_F(ObsTest, NamesAreUniqueAndStable)
{
    std::set<std::string> names;
    for (std::uint16_t i = 0; i < kTraceIdCount; ++i)
        names.insert(traceIdName(static_cast<TraceId>(i)));
    EXPECT_EQ(names.size(), kTraceIdCount);
    std::set<std::string> cats;
    for (std::uint8_t i = 0; i < kTraceCategoryCount; ++i)
        cats.insert(traceCategoryName(static_cast<TraceCategory>(i)));
    EXPECT_EQ(cats.size(), kTraceCategoryCount);
}

// ---- recorder -> dump -> export, end to end -----------------------------

TEST_F(ObsTest, RecorderStreamSurvivesDumpAndExport)
{
    Pcg32 rng(test::testSeed(), 46);
    setTracingEnabled(true);
    for (int i = 0; i < 500; ++i) {
        auto cat = static_cast<TraceCategory>(
            rng.nextBounded(kTraceCategoryCount));
        auto id =
            static_cast<TraceId>(rng.nextBounded(kTraceIdCount));
        if (rng.nextBool(0.5)) {
            traceInstant(cat, id, rng.next());
        } else {
            TraceSpan span(cat, id, rng.next());
        }
    }
    setTracingEnabled(false);

    std::vector<TraceEvent> events = collectTrace();
    EXPECT_GE(events.size(), 500u); // spans emit two events

    std::vector<TraceEvent> decoded;
    ASSERT_EQ(decodeTrace(encodeTrace(events), &decoded),
              FrameStatus::Ok);
    EXPECT_EQ(decoded, events);
    EXPECT_FALSE(chromeTraceJson(decoded).empty());
    EXPECT_FALSE(traceStatsTable(decoded).empty());
}

} // namespace
} // namespace stm::obs
