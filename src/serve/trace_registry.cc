#include "serve/trace_registry.hh"

namespace bsim {
namespace serve {

void
TraceRegistry::add(const std::string &name, const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    slots_[name] = Slot{path, nullptr};
}

TraceHandlePtr
TraceRegistry::get(const std::string &name)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto it = slots_.find(name);
    if (it == slots_.end()) {
        if (!allowPaths_)
            return nullptr;
        it = slots_.emplace(name, Slot{name, nullptr}).first;
    }
    const std::string path = it->second.path;
    const TraceHandlePtr cached = it->second.handle;
    // Stat and open outside the lock: a slow or faulting open (cold NFS
    // page-in, a fatal-throw on a malformed header) must not stall
    // lookups of other traces. Losing a race just opens the file twice;
    // the first writer wins and both handles are valid.
    lock.unlock();
    // A cached handle's chunk-validation verdicts hold only for the
    // bytes it mapped: if the file was replaced or rewritten since,
    // reopen it and replace the handle (a removed file fails the open).
    if (cached && fileIdentity(path) == cached->identity())
        return cached;
    TraceHandlePtr handle = openTraceHandle(path);
    lock.lock();
    it = slots_.find(name);
    if (it == slots_.end() || it->second.path != path)
        return handle; // re-registered mid-open; still usable
    if (!it->second.handle || it->second.handle == cached)
        it->second.handle = handle;
    return it->second.handle;
}

std::vector<TraceRegistry::Entry>
TraceRegistry::list() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Entry> out;
    out.reserve(slots_.size());
    for (const auto &[name, slot] : slots_)
        out.push_back(Entry{name, slot.path, slot.handle != nullptr});
    return out;
}

std::size_t
TraceRegistry::openCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto &[name, slot] : slots_)
        n += slot.handle != nullptr;
    return n;
}

} // namespace serve
} // namespace bsim
