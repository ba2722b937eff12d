#include "obs/attribution.hh"

#include <algorithm>

#include "common/edit_distance.hh"
#include "common/logging.hh"
#include "runner/json_sink.hh"

namespace csim
{

namespace
{

/**
 * DP cell budget for the full alignment backtrace (uint16 cells).
 * Beyond it — pathological trace inputs only — the engine degrades
 * to a distance-only pass with every error unattributed.
 */
constexpr std::size_t maxAlignCells = 16u << 20;

ErrorCause
nearestCause(const std::vector<CauseEvent> &causes, Tick when,
             Tick radius)
{
    // Evidence window [when - radius, when + radius]; among the
    // events inside it the most specific cause (lowest enum value)
    // wins, so one retransmit-give-up outranks a pile of slips.
    const Tick lo = when > radius ? when - radius : 0;
    const Tick hi = when + radius;
    auto first = std::lower_bound(
        causes.begin(), causes.end(), lo,
        [](const CauseEvent &c, Tick t) { return c.when < t; });
    ErrorCause best = ErrorCause::unattributed;
    for (auto it = first; it != causes.end() && it->when <= hi;
         ++it) {
        if (it->cause < best)
            best = it->cause;
    }
    return best;
}

} // namespace

const char *
errorCauseName(ErrorCause c)
{
    switch (c) {
      case ErrorCause::retransmitExhausted:
        return "retransmit_exhausted";
      case ErrorCause::noiseEviction: return "noise_eviction";
      case ErrorCause::syncSlip: return "sync_slip";
      case ErrorCause::fecUncorrectable: return "fec_uncorrectable";
      case ErrorCause::unattributed: return "unattributed";
      case ErrorCause::numCauses: break;
    }
    return "?";
}

std::uint64_t
ErrorBudget::total() const
{
    std::uint64_t sum = 0;
    for (const std::uint64_t c : counts)
        sum += c;
    return sum;
}

void
ErrorBudget::merge(const ErrorBudget &other)
{
    for (int i = 0; i < numErrorCauses; ++i)
        counts[static_cast<std::size_t>(i)] +=
            other.counts[static_cast<std::size_t>(i)];
}

Json
ErrorBudget::toJson() const
{
    Json obj = Json::object();
    obj["total"] = total();
    for (int i = 0; i < numErrorCauses; ++i) {
        const auto c = static_cast<ErrorCause>(i);
        // The PHY-only cause stays out of legacy-profile reports so
        // pre-PHY goldens keep their exact key set.
        if (c == ErrorCause::fecUncorrectable && count(c) == 0)
            continue;
        obj[errorCauseName(c)] = count(c);
    }
    return obj;
}

std::vector<AttributedError>
attributeErrors(const std::vector<BitObs> &sent,
                const std::vector<BitObs> &received,
                const std::vector<CauseEvent> &causes, Tick radius)
{
    const std::size_t n = sent.size();
    const std::size_t m = received.size();
    std::vector<AttributedError> errors;

    if ((n + 1) * (m + 1) > maxAlignCells) {
        // Too big to backtrace: count the errors, stamp them at the
        // end of reception, attribute nothing.
        const std::size_t dist = editDistance(
            sent, received,
            [](const BitObs &x, const BitObs &y) { return x.bit == y.bit; });
        const Tick when = m ? received.back().when : 0;
        errors.resize(dist, {when, ErrorCause::unattributed});
        return errors;
    }

    // Full Levenshtein matrix; distances fit uint16 because the cell
    // budget caps both lengths well below 65535.
    const std::size_t stride = m + 1;
    std::vector<std::uint16_t> d((n + 1) * stride);
    for (std::size_t j = 0; j <= m; ++j)
        d[j] = static_cast<std::uint16_t>(j);
    for (std::size_t i = 1; i <= n; ++i) {
        d[i * stride] = static_cast<std::uint16_t>(i);
        for (std::size_t j = 1; j <= m; ++j) {
            const std::uint16_t sub = static_cast<std::uint16_t>(
                d[(i - 1) * stride + (j - 1)] +
                (sent[i - 1].bit == received[j - 1].bit ? 0 : 1));
            const std::uint16_t del = static_cast<std::uint16_t>(
                d[(i - 1) * stride + j] + 1);
            const std::uint16_t ins = static_cast<std::uint16_t>(
                d[i * stride + (j - 1)] + 1);
            d[i * stride + j] = std::min({sub, del, ins});
        }
    }

    // Deterministic backtrace: diagonal first, then deletion, then
    // insertion. Substituted and inserted bits error at the receive
    // time; deleted bits never made it out of the channel, so they
    // error at the transmit time of the lost bit.
    std::size_t i = n, j = m;
    while (i > 0 || j > 0) {
        const std::uint16_t here = d[i * stride + j];
        if (i > 0 && j > 0) {
            const bool match = sent[i - 1].bit == received[j - 1].bit;
            if (d[(i - 1) * stride + (j - 1)] + (match ? 0 : 1) ==
                here) {
                if (!match)
                    errors.push_back({received[j - 1].when,
                                      ErrorCause::unattributed});
                --i;
                --j;
                continue;
            }
        }
        if (i > 0 && d[(i - 1) * stride + j] + 1 == here) {
            errors.push_back(
                {sent[i - 1].when, ErrorCause::unattributed});
            --i;
            continue;
        }
        errors.push_back(
            {received[j - 1].when, ErrorCause::unattributed});
        --j;
    }
    std::reverse(errors.begin(), errors.end());
    panic_if(errors.size() != d[n * stride + m],
             "alignment backtrace lost errors");

    for (AttributedError &e : errors)
        e.cause = nearestCause(causes, e.when, radius);
    return errors;
}

ErrorBudget
budgetOf(const std::vector<AttributedError> &errors)
{
    ErrorBudget budget;
    for (const AttributedError &e : errors)
        ++budget[e.cause];
    return budget;
}

} // namespace csim
