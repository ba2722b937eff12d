/**
 * @file
 * Multi-bit symbol channel (paper §VIII-D, Figure 11): the
 * `coherence-2bit` leakage vector.
 *
 * All four (location, coherence state) combination pairs are used at
 * once: each pair encodes one of four 2-bit symbol values. Symbol
 * boundaries are signalled by the trojan going quiet, so the spy's
 * reload falls into the out-of-band (DRAM) latency band — a fifth,
 * clearly distinct level. Run it like any other vector
 * (`channel.vector = coherence-2bit`, channel/vector.hh).
 */

#ifndef COHERSIM_CHANNEL_SYMBOLS_HH
#define COHERSIM_CHANNEL_SYMBOLS_HH

#include "channel/combo.hh"

namespace csim
{

/** Bits encoded per symbol (four combinations -> 2 bits). */
inline constexpr int bitsPerSymbol = 2;

/** Map a 2-bit symbol value to the combination that encodes it. */
Combo symbolCombo(int symbol);

} // namespace csim

#endif // COHERSIM_CHANNEL_SYMBOLS_HH
