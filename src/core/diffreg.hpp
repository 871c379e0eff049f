// Umbrella header: the public API of the diffreg library.
//
// diffreg reproduces "Distributed-Memory Large Deformation Diffeomorphic 3D
// Image Registration" (Mang, Gholami, Biros; SC16). See README.md for a
// quickstart and docs/ARCHITECTURE.md for the architecture.
#pragma once

#include "common/logger.hpp"
#include "common/partition.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"
#include "core/batch.hpp"
#include "core/checkpoint.hpp"
#include "core/continuation.hpp"
#include "core/deformation.hpp"
#include "core/newton.hpp"
#include "core/optimality.hpp"
#include "core/options.hpp"
#include "core/pcg.hpp"
#include "core/plan_registry.hpp"
#include "core/precond.hpp"
#include "core/registration.hpp"
#include "core/regularization.hpp"
#include "core/rigid.hpp"
#include "fft/fft1d.hpp"
#include "fft/fft3d_distributed.hpp"
#include "fft/fft3d_serial.hpp"
#include "grid/decomposition.hpp"
#include "grid/field_io.hpp"
#include "grid/field_math.hpp"
#include "grid/ghost_exchange.hpp"
#include "interp/interp_plan.hpp"
#include "interp/kernels.hpp"
#include "mpisim/communicator.hpp"
#include "semilag/transport.hpp"
#include "spectral/operators.hpp"
#include "spectral/resample.hpp"
