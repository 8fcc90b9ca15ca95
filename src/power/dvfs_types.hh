/**
 * @file
 * Shared DVFS vocabulary: SoC domains and voltage rails.
 *
 * Domain and rail names follow Fig. 1 of the SysScale paper:
 *  - V_SA  shared by the memory controller, IO interconnect, and IO
 *    engines (the "system agent" rail, circled 1),
 *  - VDDQ  shared by DRAM and the DDRIO analog front end (2, 3),
 *  - V_IO  shared by DDRIO digital and the IO PHYs (4),
 *  - compute has its own core/LLC and graphics rails (5).
 */

#ifndef SYSSCALE_POWER_DVFS_TYPES_HH
#define SYSSCALE_POWER_DVFS_TYPES_HH

#include <array>
#include <cstdint>
#include <string_view>

namespace sysscale {
namespace power {

/** The three SoC domains the paper scales. */
enum class Domain : std::uint8_t { Compute = 0, Io = 1, Memory = 2 };

constexpr std::array<Domain, 3> kAllDomains = {
    Domain::Compute, Domain::Io, Domain::Memory,
};

/** Physical voltage rails with dedicated regulators. */
enum class Rail : std::uint8_t
{
    VCore = 0, //!< CPU cores + LLC.
    VGfx = 1,  //!< Graphics engines.
    VSA = 2,   //!< MC + IO interconnect + IO engines (system agent).
    VIO = 3,   //!< DDRIO-digital + IO PHYs.
    VDDQ = 4,  //!< DRAM array + DDRIO-analog.
};

constexpr std::size_t kNumRails = 5;

constexpr std::array<Rail, kNumRails> kAllRails = {
    Rail::VCore, Rail::VGfx, Rail::VSA, Rail::VIO, Rail::VDDQ,
};

constexpr std::string_view
railName(Rail r)
{
    switch (r) {
      case Rail::VCore: return "v_core";
      case Rail::VGfx: return "v_gfx";
      case Rail::VSA: return "v_sa";
      case Rail::VIO: return "v_io";
      case Rail::VDDQ: return "vddq";
    }
    return "?";
}

constexpr std::size_t
railIndex(Rail r)
{
    return static_cast<std::size_t>(r);
}

} // namespace power
} // namespace sysscale

#endif // SYSSCALE_POWER_DVFS_TYPES_HH
