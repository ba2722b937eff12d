#include "phy/phy_config.hh"

namespace csim
{

const char *
phyProfileName(PhyProfile p)
{
    switch (p) {
      case PhyProfile::legacyParity: return "legacy-parity";
      case PhyProfile::hammingHard: return "hamming-hard";
      case PhyProfile::hammingSoft: return "hamming-soft";
      case PhyProfile::raw: return "raw";
    }
    return "?";
}

} // namespace csim
