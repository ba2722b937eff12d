#include "trace/perfetto.hh"

#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/logging.hh"

namespace csim
{
namespace
{

/** Virtual cycles -> trace microseconds at the reference clock. */
double
cyclesToUs(Tick cycles, const TimingParams &timing)
{
    return static_cast<double>(cycles) / (timing.clockGhz * 1e3);
}

Json
metadataEvent(int pid, int tid, const char *what, std::string name)
{
    Json ev = Json::object();
    ev["name"] = what;
    ev["ph"] = "M";
    ev["pid"] = pid;
    ev["tid"] = tid;
    Json args = Json::object();
    args["name"] = std::move(name);
    ev["args"] = std::move(args);
    return ev;
}

} // namespace

Json
perfettoTraceJson(const std::vector<TraceEvent> &events,
                  const SystemConfig &config)
{
    Json root = Json::object();
    Json list = Json::array();

    // Coreless events (KSM daemon activity, ...) get their own
    // pseudo-process so they do not pollute any socket's lanes.
    const int kernelPid = config.sockets + 1;

    for (int s = 0; s < config.sockets; ++s) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "socket %d", s);
        list.push(metadataEvent(s + 1, 0, "process_name", buf));
        for (int c = 0; c < config.coresPerSocket; ++c) {
            const CoreId core = config.coreOf(s, c);
            std::snprintf(buf, sizeof(buf), "core %d", core);
            list.push(metadataEvent(s + 1, core + 1, "thread_name",
                                    buf));
        }
    }
    list.push(metadataEvent(kernelPid, 0, "process_name", "kernel"));

    for (const TraceEvent &ev : events) {
        Json out = Json::object();
        out["name"] = traceTypeName(ev.type);
        out["cat"] = traceCategoryName(ev.category);
        out["ph"] = "i";
        out["s"] = "t";  // thread-scoped instant
        out["ts"] = cyclesToUs(ev.when, config.timing);
        if (ev.core >= 0 && ev.core < config.numCores()) {
            out["pid"] = config.socketOf(ev.core) + 1;
            out["tid"] = ev.core + 1;
        } else {
            out["pid"] = kernelPid;
            out["tid"] = 0;
        }
        Json args = Json::object();
        args["cycles"] = ev.when;
        if (ev.addr != 0) {
            char buf[24];
            std::snprintf(buf, sizeof(buf), "0x%llx",
                          static_cast<unsigned long long>(ev.addr));
            args["addr"] = buf;
        }
        args["a"] = ev.a;
        args["b"] = ev.b;
        // Only fleet pairs (numbered from 1) are worth a field;
        // omitting pair 0 keeps single-pair traces byte-identical
        // with captures from before multi-tenant runs existed.
        if (ev.pair != 0)
            args["pair"] = static_cast<std::int64_t>(ev.pair);
        out["args"] = std::move(args);
        list.push(std::move(out));
    }

    root["traceEvents"] = std::move(list);
    root["displayTimeUnit"] = "ns";
    return root;
}

void
writePerfettoTrace(const std::string &path,
                   const std::vector<TraceEvent> &events,
                   const SystemConfig &config)
{
    writeJsonFile(path, perfettoTraceJson(events, config));
}

std::vector<TraceEvent>
readPerfettoTrace(const std::string &path)
{
    const Json root = readJsonFile(path);
    const Json *list = root.find("traceEvents");
    fatal_if(!list || !list->isArray(),
             path, " is not a trace-event JSON document");
    const std::vector<Json> &items = list->items();
    std::vector<TraceEvent> events;
    for (std::size_t i = 0; i < items.size(); ++i) {
        const Json &item = items[i];
        const Json *ph = item.find("ph");
        if (!ph || !ph->isString() || ph->asString() != "i")
            continue;  // metadata / non-instant records
        const Json *name = item.find("name");
        if (!name || !name->isString())
            continue;
        const TraceEventType type =
            traceTypeFromName(name->asString().c_str());
        if (type == TraceEventType::numTypes)
            continue;  // written by a newer/older vocabulary
        const Json *args = item.find("args");
        if (!args || !args->isObject())
            continue;
        // An absent field reads as 0; a present one must be an
        // integer, or the trace is not one this writer produced.
        const auto field = [&](const Json &obj, const char *key) {
            const Json *v = obj.find(key);
            fatal_if(v && !v->isInt(), path, ": event ", i, " has a "
                     "non-integer \"", key, "\"");
            return v ? v->asInt() : std::int64_t{0};
        };
        TraceEvent ev;
        ev.type = type;
        ev.category = traceTypeCategory(type);
        const std::int64_t cycles = field(*args, "cycles");
        fatal_if(cycles < 0, path, ": event ", i, " has negative "
                 "\"cycles\" (", cycles, ")");
        ev.when = static_cast<Tick>(cycles);
        if (const Json *addr = args->find("addr")) {
            if (addr->isString()) {
                ev.addr = static_cast<PAddr>(std::strtoull(
                    addr->asString().c_str(), nullptr, 0));
            }
        }
        ev.a = static_cast<std::uint64_t>(field(*args, "a"));
        ev.b = static_cast<std::uint64_t>(field(*args, "b"));
        ev.pair = static_cast<std::uint32_t>(field(*args, "pair"));
        // Coreless events were filed under the kernel pseudo-process
        // with tid 0; per-core events carry tid = core + 1.
        const std::int64_t tid = field(item, "tid");
        ev.core = tid > 0 && tid <= std::numeric_limits<CoreId>::max()
                      ? static_cast<CoreId>(tid - 1)
                      : invalidCore;
        events.push_back(ev);
    }
    return events;
}

} // namespace csim
