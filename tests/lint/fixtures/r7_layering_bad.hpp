// Fixture: R7 layering violation — linted under virtual src/sim/ and
// src/topo/ paths, where including detection/ headers inverts the DAG.
#pragma once
#include "detection/chi.hpp"

inline int fixture_layering_bad() { return 3; }
