/* CPU affinity for the bench (Linux). */

#define _GNU_SOURCE
#include <sched.h>

#include <caml/mlvalues.h>

/* Restricts the calling process, and the processes it forks afterwards,
   to the highest-numbered CPU it may run on.  Returns that CPU, or -1
   when the affinity cannot be read or set. */
value ilvbench_pin_to_one_cpu(value unit)
{
  cpu_set_t allowed, one;
  (void)unit;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return Val_int(-1);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; cpu--) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return Val_int(sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1);
    }
  }
  return Val_int(-1);
}
