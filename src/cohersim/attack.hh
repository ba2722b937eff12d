/**
 * @file
 * Attack layer facade: the covert-channel stack and its defences.
 *
 * The trojan/spy pair, channel protocol and calibration, symbol and
 * ECC codings, noise workloads, sharing establishment, metrics — plus
 * the detector family on the defence side. Includes the core layer
 * (`cohersim/core.hh`): an attack always runs on a simulated machine.
 */

#ifndef COHERSIM_COHERSIM_ATTACK_HH
#define COHERSIM_COHERSIM_ATTACK_HH

#include "cohersim/core.hh"

// The covert-channel stack.
#include "channel/calibration.hh"
#include "channel/channel.hh"
#include "channel/combo.hh"
#include "channel/ecc.hh"
#include "channel/experiment.hh"
#include "channel/fleet.hh"
#include "channel/metrics.hh"
#include "channel/noise.hh"
#include "channel/placer.hh"
#include "channel/protocol.hh"
#include "channel/sharing.hh"
#include "channel/spy.hh"
#include "channel/symbols.hh"
#include "channel/trojan.hh"
#include "channel/vector.hh"

// Defences.
#include "detect/cchunter.hh"

#endif // COHERSIM_COHERSIM_ATTACK_HH
