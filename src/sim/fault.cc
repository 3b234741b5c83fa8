/**
 * @file
 * Fault plan parsing and the deterministic injector.
 */

#include "sim/fault.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "util/json.hh"
#include "util/logging.hh"

namespace omega {

namespace {

/** Seed salts: one independent stream per fault kind. */
constexpr std::uint64_t kKindSalt[kNumFaultKinds] = {
    0x9E3779B97F4A7C15ull, // SpEccError
    0xBF58476D1CE4E5B9ull, // PiscNack
    0x94D049BB133111EBull, // XbarDrop
    0xD6E8FEB86659FD93ull, // XbarDelay
    0xA5A3564E4C0F1F1Dull, // DramStall
};

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ull;

std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= kFnvPrime;
    }
    return h;
}

bool
parseU64(const std::string &tok, std::uint64_t &out)
{
    if (tok.empty() || !std::isdigit(static_cast<unsigned char>(tok[0])))
        return false; // rejects '-', '+', empty
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (errno == ERANGE || end == nullptr || *end != '\0')
        return false;
    out = static_cast<std::uint64_t>(v);
    return true;
}

bool
parseRate(const std::string &tok, double &out)
{
    if (tok.empty() ||
        !(std::isdigit(static_cast<unsigned char>(tok[0])) ||
          tok[0] == '.'))
        return false;
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (errno == ERANGE || end == nullptr || *end != '\0')
        return false;
    if (v < 0.0 || v > 1.0)
        return false;
    out = v;
    return true;
}

bool
parseBool(const std::string &tok, bool &out)
{
    if (tok == "1" || tok == "true") {
        out = true;
        return true;
    }
    if (tok == "0" || tok == "false") {
        out = false;
        return true;
    }
    return false;
}

} // namespace

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::SpEccError: return "sp-ecc";
      case FaultKind::PiscNack: return "pisc-nack";
      case FaultKind::XbarDrop: return "xbar-drop";
      case FaultKind::XbarDelay: return "xbar-delay";
      case FaultKind::DramStall: return "dram-stall";
    }
    return "?";
}

bool
FaultPlan::armed() const
{
    return sp_ecc_rate > 0.0 || pisc_nack_rate > 0.0 ||
           xbar_drop_rate > 0.0 || xbar_delay_rate > 0.0 ||
           dram_stall_rate > 0.0 || nack_always;
}

std::string
FaultPlan::describe() const
{
    std::ostringstream os;
    os << "seed=" << seed;
    const auto rate = [&os](const char *key, double r) {
        if (r > 0.0)
            os << ',' << key << '=' << r;
    };
    rate("ecc", sp_ecc_rate);
    rate("nack", pisc_nack_rate);
    rate("drop", xbar_drop_rate);
    rate("delay", xbar_delay_rate);
    rate("dram", dram_stall_rate);
    if (xbar_delay_rate > 0.0)
        os << ",delay-cycles=" << xbar_delay_cycles;
    if (dram_stall_rate > 0.0)
        os << ",stall-cycles=" << dram_stall_cycles;
    if (!retries_enabled)
        os << ",no-retry=1";
    os << ",retries=" << max_retries << ",backoff=" << retry_backoff
       << ",line-threshold=" << line_fault_threshold
       << ",sp-threshold=" << sp_fault_threshold;
    if (watchdog_cycles != 0)
        os << ",watchdog=" << watchdog_cycles;
    if (nack_always)
        os << ",nack-always=1";
    return os.str();
}

std::optional<FaultPlan>
FaultPlan::parse(const std::string &spec, std::string *error)
{
    const auto fail = [error](const std::string &msg) {
        if (error != nullptr)
            *error = msg;
        return std::nullopt;
    };

    FaultPlan plan;
    std::istringstream is(spec);
    std::string item;
    while (std::getline(is, item, ',')) {
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0)
            return fail("expected key=value, got '" + item + "'");
        const std::string key = item.substr(0, eq);
        const std::string val = item.substr(eq + 1);

        const auto bad = [&] {
            return fail("invalid value for '" + key + "': '" + val +
                        "' (negative, out of range or not a number)");
        };

        std::uint64_t u = 0;
        double r = 0.0;
        bool b = false;
        if (key == "seed") {
            if (!parseU64(val, u))
                return bad();
            plan.seed = u;
        } else if (key == "ecc") {
            if (!parseRate(val, r))
                return bad();
            plan.sp_ecc_rate = r;
        } else if (key == "nack") {
            if (!parseRate(val, r))
                return bad();
            plan.pisc_nack_rate = r;
        } else if (key == "drop") {
            if (!parseRate(val, r))
                return bad();
            plan.xbar_drop_rate = r;
        } else if (key == "delay") {
            if (!parseRate(val, r))
                return bad();
            plan.xbar_delay_rate = r;
        } else if (key == "dram") {
            if (!parseRate(val, r))
                return bad();
            plan.dram_stall_rate = r;
        } else if (key == "delay-cycles") {
            if (!parseU64(val, u))
                return bad();
            plan.xbar_delay_cycles = u;
        } else if (key == "stall-cycles") {
            if (!parseU64(val, u))
                return bad();
            plan.dram_stall_cycles = u;
        } else if (key == "retries") {
            if (!parseU64(val, u) || u > 1u << 20)
                return bad();
            plan.max_retries = static_cast<unsigned>(u);
        } else if (key == "backoff") {
            if (!parseU64(val, u))
                return bad();
            plan.retry_backoff = u;
        } else if (key == "line-threshold") {
            if (!parseU64(val, u) || u == 0 || u > 1u << 20)
                return bad();
            plan.line_fault_threshold = static_cast<unsigned>(u);
        } else if (key == "sp-threshold") {
            if (!parseU64(val, u) || u == 0 || u > 1u << 20)
                return bad();
            plan.sp_fault_threshold = static_cast<unsigned>(u);
        } else if (key == "watchdog") {
            if (!parseU64(val, u))
                return bad();
            plan.watchdog_cycles = u;
        } else if (key == "nack-always") {
            if (!parseBool(val, b))
                return bad();
            plan.nack_always = b;
        } else if (key == "no-retry") {
            if (!parseBool(val, b))
                return bad();
            plan.retries_enabled = !b;
        } else {
            return fail("unknown fault-plan key '" + key + "'");
        }
    }
    return plan;
}

FaultInjector::FaultInjector(const FaultPlan &plan)
    : plan_(plan),
      streams_{Rng(plan.seed ^ kKindSalt[0]), Rng(plan.seed ^ kKindSalt[1]),
               Rng(plan.seed ^ kKindSalt[2]), Rng(plan.seed ^ kKindSalt[3]),
               Rng(plan.seed ^ kKindSalt[4])},
      trace_digest_(fnvMix(kFnvOffset, plan.seed))
{
    omega_assert(plan.line_fault_threshold > 0 &&
                     plan.sp_fault_threshold > 0,
                 "fault thresholds must be >= 1");
}

void
FaultInjector::record(FaultKind kind, unsigned component, VertexId vertex,
                      Cycles at)
{
    ++total_events_;
    std::uint64_t h = trace_digest_;
    h = fnvMix(h, static_cast<std::uint64_t>(kind));
    h = fnvMix(h, component);
    h = fnvMix(h, vertex);
    h = fnvMix(h, at);
    trace_digest_ = h;
    if (events_.size() < kMaxRecordedEvents)
        events_.push_back(FaultEvent{kind, component, vertex, at});
}

bool
FaultInjector::spEccError(unsigned sp, VertexId vertex, Cycles now)
{
    if (plan_.sp_ecc_rate <= 0.0)
        return false;
    if (!stream(FaultKind::SpEccError).nextBool(plan_.sp_ecc_rate))
        return false;
    ++counters_.sp_ecc_errors;
    record(FaultKind::SpEccError, sp, vertex, now);
    return true;
}

bool
FaultInjector::piscNack(unsigned pisc, VertexId vertex, Cycles now)
{
    if (!plan_.nack_always) {
        if (plan_.pisc_nack_rate <= 0.0)
            return false;
        if (!stream(FaultKind::PiscNack).nextBool(plan_.pisc_nack_rate))
            return false;
    }
    ++counters_.pisc_nacks;
    record(FaultKind::PiscNack, pisc, vertex, now);
    return true;
}

Cycles
FaultInjector::xbarPacketFaults(Cycles now, Cycles retransmit_cycles)
{
    Cycles extra = 0;
    if (plan_.xbar_drop_rate > 0.0) {
        // Each drop costs one retransmission; consecutive redraws are
        // bounded so a rate of 1.0 cannot loop forever.
        unsigned drops = 0;
        while (drops < 4 &&
               stream(FaultKind::XbarDrop).nextBool(plan_.xbar_drop_rate)) {
            ++drops;
            ++counters_.xbar_drops;
            extra += retransmit_cycles;
            record(FaultKind::XbarDrop, 0, 0, now + extra);
        }
    }
    if (plan_.xbar_delay_rate > 0.0 &&
        stream(FaultKind::XbarDelay).nextBool(plan_.xbar_delay_rate)) {
        ++counters_.xbar_delays;
        extra += plan_.xbar_delay_cycles;
        record(FaultKind::XbarDelay, 0, 0, now + extra);
    }
    counters_.injected_delay_cycles += extra;
    return extra;
}

Cycles
FaultInjector::dramStall(unsigned channel, Cycles now)
{
    if (plan_.dram_stall_rate <= 0.0)
        return 0;
    if (!stream(FaultKind::DramStall).nextBool(plan_.dram_stall_rate))
        return 0;
    ++counters_.dram_stalls;
    counters_.injected_delay_cycles += plan_.dram_stall_cycles;
    record(FaultKind::DramStall, channel, 0, now);
    return plan_.dram_stall_cycles;
}

void
FaultInjector::recordRetry(FaultKind kind, unsigned component,
                           VertexId vertex, Cycles at)
{
    ++counters_.retries;
    record(kind, component, vertex, at);
}

void
FaultInjector::recordLostUpdate(unsigned pisc, VertexId vertex, Cycles at)
{
    ++counters_.lost_updates;
    record(FaultKind::PiscNack, pisc, vertex, at);
}

void
FaultInjector::recordDegradedAtomic(unsigned pisc, VertexId vertex,
                                    Cycles at)
{
    ++counters_.degraded_atomics;
    record(FaultKind::PiscNack, pisc, vertex, at);
}

void
FaultInjector::recordRefetch(unsigned sp, VertexId vertex, Cycles at)
{
    ++counters_.refetches;
    record(FaultKind::SpEccError, sp, vertex, at);
}

void
FaultInjector::recordLinePoisoned(unsigned sp, VertexId vertex, Cycles at)
{
    ++counters_.lines_poisoned;
    record(FaultKind::SpEccError, sp, vertex, at);
}

void
FaultInjector::recordDemotion(unsigned sp, Cycles at)
{
    ++counters_.sp_demotions;
    record(FaultKind::SpEccError, sp, 0, at);
}

bool
FaultInjector::registerLineError(VertexId vertex)
{
    if (line_errors_.size() <= vertex)
        line_errors_.resize(static_cast<std::size_t>(vertex) + 1, 0);
    return ++line_errors_[vertex] >= plan_.line_fault_threshold;
}

bool
FaultInjector::registerScratchpadFault(unsigned sp)
{
    if (sp_faults_.size() <= sp)
        sp_faults_.resize(sp + 1, 0);
    return ++sp_faults_[sp] == plan_.sp_fault_threshold;
}

void
FaultInjector::visit(FieldVisitor &v)
{
    v.config("fault plan", plan_.describe());
    for (Rng &stream : streams_)
        v.state(stream.stateWords());
    FaultCounters &c = counters_;
    v.counter("sp_ecc_errors", c.sp_ecc_errors,
              "injected scratchpad ECC errors");
    v.counter("pisc_nacks", c.pisc_nacks, "injected PISC offload NACKs");
    v.counter("xbar_drops", c.xbar_drops, "injected crossbar packet drops");
    v.counter("xbar_delays", c.xbar_delays,
              "injected crossbar packet delays");
    v.counter("dram_stalls", c.dram_stalls, "injected DRAM channel stalls");
    v.counter("retries", c.retries, "recovery retries performed");
    v.counter("lost_updates", c.lost_updates,
              "fire-and-forget updates lost (retries disabled)");
    v.counter("degraded_atomics", c.degraded_atomics,
              "atomics degraded to the cache path");
    v.counter("lines_poisoned", c.lines_poisoned,
              "scratchpad lines poisoned");
    v.counter("sp_demotions", c.sp_demotions,
              "scratchpads demoted to the cache path");
    v.counter("refetches", c.refetches, "poisoned-line memory re-fetches");
    v.counter("injected_delay_cycles", c.injected_delay_cycles,
              "total injected latency");
    v.custom(
        [this](SnapshotWriter &w) {
            w.putU64(events_.size());
            for (const FaultEvent &e : events_) {
                w.putU8(static_cast<std::uint8_t>(e.kind));
                w.putU32(e.component);
                w.putU32(e.vertex);
                w.putU64(e.at);
            }
        },
        [this](SnapshotReader &r) {
            const std::uint64_t recorded = r.getCount(1 + 4 + 4 + 8);
            if (recorded > kMaxRecordedEvents) {
                throw SnapshotStateError(
                    "snapshot: recorded fault trace exceeds its cap");
            }
            events_.clear();
            events_.reserve(recorded);
            for (std::uint64_t i = 0; i < recorded; ++i) {
                FaultEvent e;
                e.kind = static_cast<FaultKind>(r.getU8());
                e.component = r.getU32();
                e.vertex = r.getU32();
                e.at = r.getU64();
                events_.push_back(e);
            }
        });
    v.state(total_events_);
    v.state(trace_digest_);
    v.state(line_errors_);
    v.state(sp_faults_);
}

std::string
FaultInjector::summary() const
{
    std::ostringstream os;
    os << "fault campaign {" << plan_.describe() << "}: " << total_events_
       << " events (ecc=" << counters_.sp_ecc_errors
       << " nack=" << counters_.pisc_nacks
       << " drop=" << counters_.xbar_drops
       << " delay=" << counters_.xbar_delays
       << " dram=" << counters_.dram_stalls
       << " retries=" << counters_.retries
       << " lost=" << counters_.lost_updates
       << " degraded=" << counters_.degraded_atomics
       << " poisoned=" << counters_.lines_poisoned
       << " demoted=" << counters_.sp_demotions
       << " refetch=" << counters_.refetches << "), trace digest 0x"
       << std::hex << trace_digest_ << std::dec;
    return os.str();
}

namespace {

/** Emits each counter a visit() names as one JSON field. */
class JsonCounterWriter final : public FieldVisitor
{
  public:
    explicit JsonCounterWriter(JsonWriter &w) : w_(w) {}

    void
    counter(const char *name, std::uint64_t &v, const char *) override
    {
        w_.field(name, v);
    }

  private:
    JsonWriter &w_;
};

} // namespace

void
FaultInjector::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.field("plan", plan_.describe());
    w.field("events", total_events_);
    JsonCounterWriter counters(w);
    const_cast<FaultInjector *>(this)->visit(counters);
    w.field("trace_digest", trace_digest_);
    w.endObject();
}

} // namespace omega
