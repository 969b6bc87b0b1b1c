// Lowers a built DataPath into an RTL Module: one cell per operation, nets
// at the inferred widths, pipeline registers at every stage crossing (the
// materialized form of section 4.2.2's register-copy insertion), and the
// feedback registers closing each LPR/SNX loop.
#pragma once

#include "dp/datapath.hpp"
#include "rtl/netlist.hpp"

namespace roccc::rtl {

/// Builds the synthesizable module. Feedback registers are exposed as extra
/// output ports named "<name>__fb" so the system can read final values.
/// Does not verify the result: the build-rtl pass runs Module::verify once,
/// as its post-pass verifier, and a failure there is an internal error.
/// Callers outside the pipeline verify the module themselves.
void buildDatapathModule(const dp::DataPath& dp, Module& out);

} // namespace roccc::rtl
