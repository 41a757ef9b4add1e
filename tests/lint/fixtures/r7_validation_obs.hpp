// Fixture: R7 layering violation — linted under a virtual src/validation/
// path; validation/ emits no trace events, so it must not include obs/.
#pragma once
#include "obs/trace.hpp"

inline int fixture_validation_obs() { return 5; }
