#include "analysis/verify/verify.h"

namespace ft {
namespace verify {

const char *
annoName(LoopAnno anno)
{
    switch (anno) {
      case LoopAnno::Serial: return "serial";
      case LoopAnno::Parallel: return "parallel";
      case LoopAnno::Vectorize: return "vectorize";
      case LoopAnno::Unroll: return "unroll";
      case LoopAnno::BlockX: return "blockIdx.x";
      case LoopAnno::VThread: return "vthread";
      case LoopAnno::ThreadX: return "threadIdx.x";
      case LoopAnno::PE: return "pe";
    }
    return "?";
}

void
checkStructural(const LoopNest &nest, DiagReport &out)
{
    checkRaces(nest, out);
    checkAccessBounds(nest, out);
}

void
verifyScheduleInto(const Scheduled &s, const Target &target,
                   const OpConfig *config, DiagReport &out)
{
    checkRaces(s.nest, out);
    checkAccessBounds(s.nest, out);
    checkResources(s, target, config, out);
}

DiagReport
verifySchedule(const Scheduled &s, const Target &target,
               const OpConfig *config)
{
    DiagReport out;
    verifyScheduleInto(s, target, config, out);
    return out;
}

} // namespace verify
} // namespace ft
