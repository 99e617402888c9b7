/* The sampler of scripts/profile.sh, LD_PRELOADed into a frame-pointer
 * build of perf. PROFILE_MODE=cpu takes a sample on every millisecond of
 * CPU time (SIGPROF); PROFILE_MODE=alloc on every 16th malloc, calloc or
 * realloc call; PROFILE_MODE=bytes once for every 256 KiB those calls
 * ask for (a call that crosses k multiples of it is sampled k times, so
 * the samples weigh each call by its size). A sample is the program counter followed by the return
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
static size_t used, lost, requested;
static unsigned long calls;
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

/* How many samples a call asking for `n` bytes takes. */
static size_t samples_for(size_t n) {
    if (sampling == 1) return ++calls % 16 == 0;
    if (sampling != 2) return 0;
    size_t before = requested >> 18;
    requested += n;
    return (requested >> 18) - before;
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
