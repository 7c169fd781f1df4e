#include "sim/stage_timer.h"

namespace monatt::sim
{

void
StageTimer::beginStage(const std::string &name, SimTime now)
{
    if (open)
        endStage(now);
    openName = name;
    openStart = now;
    open = true;
}

void
StageTimer::endStage(SimTime now)
{
    if (!open)
        return;
    done.push_back(StageRecord{openName, openStart, now});
    open = false;
}

void
StageTimer::record(const std::string &name, SimTime start, SimTime end)
{
    done.push_back(StageRecord{name, start, end});
}

SimTime
StageTimer::durationOf(const std::string &name) const
{
    SimTime sum = 0;
    for (const auto &stage : done) {
        if (stage.name == name)
            sum += stage.duration();
    }
    return sum;
}

} // namespace monatt::sim
