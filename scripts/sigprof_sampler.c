/* A sampling profiler for any dynamically linked program, loaded with
 * LD_PRELOAD: a CPU-time interval timer (ITIMER_PROF) raises SIGPROF about
 * once per millisecond of process CPU time, and the handler records the
 * interrupted program counter. At exit the samples are written to
 * `sigprof.<pid>.out` in the working directory, together with the load
 * address of every mapped object, so scripts/sigprof_report.py can turn
 * them into function and source-line shares with addr2line.
 *
 * Build and run (scripts/sigprof_report.py does both for you):
 *
 *   cc -O2 -shared -fPIC -o sigprof_sampler.so scripts/sigprof_sampler.c
 *   LD_PRELOAD=$PWD/sigprof_sampler.so build-bench/aqsios_bench \
 *       --workload kernel-train --seconds 4
 *   python3 scripts/sigprof_report.py --samples sigprof.<pid>.out
 *
 * Only x86-64 Linux is supported. The kernel's tick bounds the real rate:
 * at 250 Hz a 4 s run yields about 1 000 samples. Samples come only from a
 * normal exit (exit() or a return from main).
 */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#if !defined(__x86_64__)
#error "sigprof_sampler reads the x86-64 program counter (REG_RIP)"
#endif

#define SAMPLE_CAPACITY (1u << 20)
#define INTERVAL_US 1000

static uintptr_t samples[SAMPLE_CAPACITY];
static unsigned long sample_count;
static unsigned long samples_lost;

static void on_sigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)context;
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  const unsigned long slot =
      __atomic_fetch_add(&sample_count, 1, __ATOMIC_RELAXED);
  if (slot < SAMPLE_CAPACITY) {
    samples[slot] = pc;
  } else {
    __atomic_fetch_add(&samples_lost, 1, __ATOMIC_RELAXED);
  }
}

__attribute__((constructor)) static void sampler_start(void) {
  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_sigaction = on_sigprof;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGPROF, &action, NULL) != 0) return;
  struct itimerval timer;
  timer.it_interval.tv_sec = 0;
  timer.it_interval.tv_usec = INTERVAL_US;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, NULL);
}

/* One `object <path> <load bias> <lowest> <highest>` line per mapped object
 * with executable segments: a sample pc in [lowest, highest) belongs to it,
 * at the ELF address pc - load bias. The main program's path comes from
 * /proc/self/exe (dl_iterate_phdr names it ""). */
static int write_object(struct dl_phdr_info* info, size_t size, void* data) {
  (void)size;
  FILE* out = (FILE*)data;
  uintptr_t lowest = UINTPTR_MAX;
  uintptr_t highest = 0;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)* ph = &info->dlpi_phdr[i];
    if (ph->p_type != PT_LOAD || !(ph->p_flags & PF_X)) continue;
    const uintptr_t start = info->dlpi_addr + ph->p_vaddr;
    if (start < lowest) lowest = start;
    if (start + ph->p_memsz > highest) highest = start + ph->p_memsz;
  }
  if (highest == 0) return 0;
  char self[4096];
  const char* path = info->dlpi_name;
  if (path == NULL || path[0] == '\0') {
    const ssize_t n = readlink("/proc/self/exe", self, sizeof(self) - 1);
    if (n <= 0) return 0;
    self[n] = '\0';
    path = self;
  }
  fprintf(out, "object %s %#lx %#lx %#lx\n", path,
          (unsigned long)info->dlpi_addr, (unsigned long)lowest,
          (unsigned long)highest);
  return 0;
}

__attribute__((destructor)) static void sampler_stop(void) {
  struct itimerval off;
  memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, NULL);
  signal(SIGPROF, SIG_IGN);
  char path[64];
  snprintf(path, sizeof(path), "sigprof.%ld.out", (long)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  fprintf(out, "sigprof 1 interval_us %d lost %lu\n", INTERVAL_US,
          samples_lost);
  dl_iterate_phdr(write_object, out);
  unsigned long n = sample_count;
  if (n > SAMPLE_CAPACITY) n = SAMPLE_CAPACITY;
  for (unsigned long i = 0; i < n; ++i) {
    fprintf(out, "pc %#lx\n", (unsigned long)samples[i]);
  }
  fclose(out);
}
