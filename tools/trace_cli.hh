/**
 * @file
 * Shared `--trace FILE` plumbing for the CLI front ends.
 *
 * A tool that takes --trace enables the recorder for the scope of the
 * guard and dumps the collected events on the way out — on every exit
 * path, including early returns for failed diagnoses. A path ending
 * in .json selects the Chrome trace_event export; anything else gets
 * the binary STMT dump (inspect with `stm_trace dump|stats`).
 */

#ifndef STM_TOOLS_TRACE_CLI_HH
#define STM_TOOLS_TRACE_CLI_HH

#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "obs/trace_io.hh"

namespace stm::tools
{

/**
 * Write @p events to @p path: Chrome trace_event JSON for a path
 * ending in .json, else the binary STMT dump. Returns the format
 * written, or nullopt (after a message on stderr) when the file
 * cannot be written.
 */
inline std::optional<std::string>
writeTraceDump(const std::string &path,
               const std::vector<obs::TraceEvent> &events)
{
    if (path.ends_with(".json")) {
        std::ofstream os(path, std::ios::binary);
        os << obs::chromeTraceJson(events);
        if (os)
            return "chrome trace_event JSON";
    } else if (obs::writeTraceFile(path, events) == FrameStatus::Ok) {
        return "binary STMT v" +
               std::to_string(obs::kTraceFrame.version);
    }
    std::cerr << "cannot write trace to " << path << '\n';
    return std::nullopt;
}

/** RAII --trace handler: enable on construction, dump on scope exit. */
class TraceCliGuard
{
  public:
    explicit TraceCliGuard(std::string path) : path_(std::move(path))
    {
        if (path_.empty())
            return;
        obs::clearTrace();
        obs::setTracingEnabled(true);
    }

    ~TraceCliGuard()
    {
        if (path_.empty())
            return;
        obs::setTracingEnabled(false);
        std::vector<obs::TraceEvent> events = obs::collectTrace();
        if (writeTraceDump(path_, events))
            std::cout << "(trace: " << events.size() << " events -> "
                      << path_ << ")\n";
    }

    TraceCliGuard(const TraceCliGuard &) = delete;
    TraceCliGuard &operator=(const TraceCliGuard &) = delete;

  private:
    std::string path_;
};

} // namespace stm::tools

#endif // STM_TOOLS_TRACE_CLI_HH
