/* The sampler of scripts/profile.sh, LD_PRELOADed into a frame-pointer
 * build of perf. PROFILE_MODE=cpu takes a sample on every millisecond of
 * CPU time (SIGPROF); PROFILE_MODE=alloc on every 16th malloc, calloc or
 * realloc call; PROFILE_MODE=bytes on 256 KiB those calls ask for, on
 * average: the bytes between two samples are drawn from an exponential
 * distribution of that mean (a fixed seed, so a run repeats), as
 * tcmalloc's heap sampler draws them, and a call that spans k of the
 * gaps is sampled k times. Each sample so stands for its expected
 * 256 KiB whatever the period of the program: a fixed step would charge
 * every sample of a periodic run to the same few allocations. A sample
 * is the program counter followed by the return
 * addresses a frame-pointer walk finds between the stack pointer and the
 * top of the main thread's stack; at exit the samples and
 * /proc/self/maps go to $PROFILE_OUT for scripts/profile-report.py.
 * Nothing here allocates while sampling. */
#define _GNU_SOURCE
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define DEPTH 64
#define CAP (1 << 22)
static uintptr_t buf[CAP], stack_hi;
static size_t used, lost;
static unsigned long calls;
static uint64_t seed = 0x9e3779b97f4a7c15u; /* xorshift64's state */
static double gap;                          /* bytes until the next sample */
static const char *mode = "cpu";
static int sampling; /* 0 while cpu (or finished), 1 for alloc, 2 for bytes */

/* One sample: its length, then `pc` and the walk from frame `fp`, which
 * must lie in [sp, stack top): only that part of the stack is mapped. */
static void record(uintptr_t pc, uintptr_t fp, uintptr_t sp) {
    if (used + DEPTH + 2 > CAP) {
        lost++;
        return;
    }
    size_t head = used++;
    buf[used++] = pc;
    for (int d = 0; d < DEPTH && fp >= sp && fp + 16 <= stack_hi && !(fp & 7); d++) {
        uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
        if (!ret || next <= fp) break;
        buf[used++] = ret;
        fp = next;
    }
    buf[head] = used - head - 1;
}

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    mcontext_t *m = &((ucontext_t *)ctx)->uc_mcontext;
    record(m->gregs[REG_RIP], m->gregs[REG_RBP], m->gregs[REG_RSP]);
}

/* An exponential draw of mean 256 KiB: -ln(u) for u uniform in (0, 1],
 * ln from the exponent and a series in (m - 1) / (m + 1) of the
 * mantissa m (libm is not ours to link). */
static double next_gap(void) {
    seed ^= seed << 13, seed ^= seed >> 7, seed ^= seed << 17;
    double u = (double)((seed >> 11) + 1) / 9007199254740992.0, m = u;
    int e = 0;
    while (m < 1) m *= 2, e--;
    double z = (m - 1) / (m + 1), z2 = z * z, term = z, series = 0;
    for (int k = 1; k < 40; k += 2, term *= z2) series += term / k;
    return -(e * 0.6931471805599453 + 2 * series) * (1 << 18);
}

/* How many samples a call asking for `n` bytes takes. */
static size_t samples_for(size_t n) {
    if (sampling == 1) return ++calls % 16 == 0;
    if (sampling != 2) return 0;
    size_t k = 0;
    for (gap -= (double)n; gap <= 0; gap += next_gap()) k++;
    return k;
}

/* Our own frame is [fp]: the caller's frame pointer, then our return. */
#define SAMPLED(n, call)                                                                \
    for (size_t k = samples_for(n); k; k--) {                                           \
        uintptr_t *fp = __builtin_frame_address(0);                                     \
        record(fp[1], fp[0], (uintptr_t)fp);                                            \
    }                                                                                   \
    return call;
void *__libc_malloc(size_t), *__libc_calloc(size_t, size_t), *__libc_realloc(void *, size_t);
void *malloc(size_t n) { SAMPLED(n, __libc_malloc(n)) }
void *calloc(size_t n, size_t size) { SAMPLED(n * size, __libc_calloc(n, size)) }
void *realloc(void *p, size_t n) { SAMPLED(n, __libc_realloc(p, n)) }

__attribute__((constructor)) static void start(void) {
    pthread_attr_t attr;
    void *addr;
    size_t size;
    if (pthread_getattr_np(pthread_self(), &attr) || pthread_attr_getstack(&attr, &addr, &size)) return;
    stack_hi = (uintptr_t)addr + size;
    const char *asked = getenv("PROFILE_MODE");
    if (asked && !strcmp(asked, "alloc")) sampling = 1;
    if (asked && !strcmp(asked, "bytes")) sampling = 2;
    if (sampling) {
        mode = asked;
        gap = next_gap();
        return;
    }
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    sampling = 0;
    const char *path = getenv("PROFILE_OUT");
    FILE *out = path ? fopen(path, "w") : NULL, *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps) return;
    char line[4096];
    fputs("maps\n", out);
    while (fgets(line, sizeof line, maps)) fputs(line, out);
    fprintf(out, "samples %s %zu\n", mode, lost);
    for (size_t i = 0; i < used; i += buf[i] + 1) {
        for (size_t j = 1; j <= buf[i]; j++) fprintf(out, j > 1 ? " %lx" : "%lx", (unsigned long)buf[i + j]);
        fputc('\n', out);
    }
    fclose(maps);
    fclose(out);
}
