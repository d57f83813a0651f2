#include "sim/serial_engine.hpp"

namespace pypim
{

void
SerialEngine::execute(const Word *ops, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        serialPerform(ops[i]);
}

} // namespace pypim
