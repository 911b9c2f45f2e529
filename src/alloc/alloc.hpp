// Umbrella header for the allocator.
#pragma once

#include "alloc/allocator.hpp"
#include "alloc/config.hpp"
#include "alloc/pool.hpp"
#include "alloc/stream.hpp"
#include "alloc/tbuddy.hpp"
#include "alloc/ualloc.hpp"
