/**
 * @file
 * The resident server's trace table: names mapped to paths, each opened
 * at most once as a shared TraceHandle (workload/trace_reader.hh).
 * Concurrent requests naming the same trace replay windows of one mmap
 * instead of re-opening and re-mapping the file per request; handles
 * are immutable, so no locking is needed past the lookup.
 *
 * A handle remembers which chunks of its mapping have passed
 * validation, and that memo is only true of the file it mapped. So
 * every lookup stats the path (one stat(2)) and compares device,
 * inode, size and mtime with the handle's; on a change the file is
 * reopened with a fresh memo. A rewrite during a running request is
 * not detected by that request.
 *
 * Resolution order for a request's "trace" string: a registered name
 * wins; otherwise, when path fallback is enabled (the default for a
 * local daemon), the string is treated as a filesystem path and opened
 * on first use under its own name. Unknown names with fallback off, or
 * unopenable paths, surface as the typed `unknown-trace` error.
 */

#ifndef BSIM_SERVE_TRACE_REGISTRY_HH
#define BSIM_SERVE_TRACE_REGISTRY_HH

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "workload/trace_reader.hh"

namespace bsim {
namespace serve {

class TraceRegistry
{
  public:
    /** @p allow_paths: resolve unregistered names as filesystem paths. */
    explicit TraceRegistry(bool allow_paths = true)
        : allowPaths_(allow_paths)
    {
    }

    /**
     * Register @p name -> @p path without opening the file (missing
     * files fail at first use, like the CLI's lazy trace open).
     * Re-registering a name replaces its path and drops any open
     * handle.
     */
    void add(const std::string &name, const std::string &path);

    /**
     * Resolve @p name to an open handle, opening and caching it on
     * first use and reopening it when the file's identity has changed.
     * Returns nullptr for unknown names when path fallback is off;
     * throws FatalError (via the daemon's fatal-throw mode) for
     * resolvable names whose files are missing or malformed.
     */
    TraceHandlePtr get(const std::string &name);

    /** One registered or path-cached trace, for op:"list-traces". */
    struct Entry
    {
        std::string name;
        std::string path;
        bool open = false; ///< handle resident (opened at least once)
    };

    /** Snapshot of the table, registration order not guaranteed. */
    std::vector<Entry> list() const;

    /** Traces with a resident handle — the /metrics open-handle gauge. */
    std::size_t openCount() const;

  private:
    struct Slot
    {
        std::string path;
        TraceHandlePtr handle; ///< null until first get()
    };

    mutable std::mutex mutex_;
    std::map<std::string, Slot> slots_;
    bool allowPaths_;
};

} // namespace serve
} // namespace bsim

#endif // BSIM_SERVE_TRACE_REGISTRY_HH
