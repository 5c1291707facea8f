/* LD_PRELOAD sampling profiler for boxes without `perf`.
 *
 * A SIGPROF timer (ITIMER_PROF, 1 kHz of process CPU time) records, per
 * sample, the interrupted RIP and the word at RSP — the return address
 * whenever the sample lands in a frameless leaf (libc memmove, small
 * inlined helpers), which is where attribution to the caller matters.
 * At exit the samples and /proc/self/maps go to $PROFILE_OUT.<pid> (default
 * ./profile.samples.<pid>; one file per process, since the benchmark runs
 * each unit in a child) for scripts/profile/symbolize.py.
 *
 * Build: gcc -O2 -shared -fPIC -o sampler.so sampler.c   (x86-64 Linux)
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 20)
static unsigned long samples[MAX_SAMPLES][2];
static volatile unsigned long count;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    const greg_t *regs = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    unsigned long i = count;
    if (i < MAX_SAMPLES) {
        samples[i][0] = (unsigned long)regs[REG_RIP];
        samples[i][1] = *(unsigned long *)regs[REG_RSP];
        count = i + 1;
    }
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tick = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &tick, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *prefix = getenv("PROFILE_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", prefix ? prefix : "profile.samples", (int)getpid());
    FILE *out = fopen(path, "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    char line[512];
    while (fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
    for (unsigned long i = 0; i < count; i++)
        fprintf(out, "S %lx %lx\n", samples[i][0], samples[i][1]);
    fclose(maps);
    fclose(out);
}
