/**
 * @file
 * Named governor registry — the single place a governor gains a
 * name that experiments, sweeps, and spec files can refer to.
 *
 * Every governor in the zoo registers exactly once in
 * governor_registry.cc via the greppable addEntry() idiom; the
 * experiment layer (exp::makeGovernor), the sweep console's
 * --governors validation, and check_docs.sh all derive their name
 * lists from here, so a governor cannot be runnable-but-undocumented
 * or documented-but-unrunnable.
 */

#ifndef SYSSCALE_CORE_GOVERNOR_REGISTRY_HH
#define SYSSCALE_CORE_GOVERNOR_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/governor.hh"

namespace sysscale {
namespace core {

/** One registry row: a name, a one-line summary, and a factory. */
struct GovernorEntry
{
    std::string name;
    std::string summary;
    std::function<std::unique_ptr<Governor>(const GovernorParams &)>
        make;
};

/** The full registry, in registration (display) order. */
const std::vector<GovernorEntry> &governorRegistry();

/** Registered names, in registration order. */
std::vector<std::string> governorNames();

/**
 * Construct governor @p name with @p params.
 *
 * Throws std::invalid_argument when the name is unknown (the message
 * enumerates every registered name) or when the governor rejects the
 * parameters.
 */
std::unique_ptr<Governor> makeGovernor(
    const std::string &name, const GovernorParams &params = {});

} // namespace core
} // namespace sysscale

#endif // SYSSCALE_CORE_GOVERNOR_REGISTRY_HH
