/* The number of processors this process may run on, as nproc(1)
   reports it: the affinity mask, else the online count. */

#define _GNU_SOURCE
#include <sched.h>
#include <unistd.h>

#include <caml/mlvalues.h>

value perfbench_nproc(value unit)
{
  (void)unit;
  cpu_set_t set;
  long n = 0;
  if (sched_getaffinity(0, sizeof set, &set) == 0) n = CPU_COUNT(&set);
  if (n < 1) n = sysconf(_SC_NPROCESSORS_ONLN);
  return Val_long(n < 1 ? 1 : n);
}

