/* pcsample: a leaf-PC sampling profiler built on ptrace.

   Runs a command with address-space randomisation off, waits until it has
   exec'd (so nothing is sampled from this program or the dynamic loader's
   hand-off), then interrupts it at a fixed wall-clock interval and records
   the instruction pointer of each stop. The samples are leaf PCs only:
   no call stacks, so a sample counts against the function that was
   executing, not its callers. That is what the per-layer ledger cannot
   show: time inside small helpers that no span wraps (parity fixing,
   MD4, bignum arithmetic).

   Build and run (Linux, x86-64 or aarch64):

       cc -O2 -o pcsample tools/pcsample.c
       ./pcsample -i 500 -o samples.txt -- _build/default/perfbench/bench.exe \
           setup --workload login_storm
       python3 tools/pcsymbols.py samples.txt

   The output's first line is "# exe <path> base <hex>": the executable and
   the address its first mapping was loaded at, which pcsymbols.py needs to
   resolve a position-independent executable. Every further line is one
   sampled PC in hex. Only the main thread is traced. The traced program's
   exit status is passed through. */

#define _GNU_SOURCE
#include <errno.h>
#include <limits.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/personality.h>
#include <sys/ptrace.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>
#include <elf.h>
#if defined(__x86_64__)
#include <sys/user.h>
#endif

static void die(const char *what) {
  perror(what);
  exit(2);
}

static uint64_t read_pc(pid_t pid, int *ok) {
#if defined(__x86_64__)
  struct user_regs_struct regs;
  *ok = ptrace(PTRACE_GETREGS, pid, 0, &regs) == 0;
  return regs.rip;
#elif defined(__aarch64__)
  struct { uint64_t regs[31], sp, pc, pstate; } regs;
  struct iovec io = { &regs, sizeof regs };
  *ok = ptrace(PTRACE_GETREGSET, pid, (void *)NT_PRSTATUS, &io) == 0;
  return regs.pc;
#else
#error "pcsample supports x86-64 and aarch64"
#endif
}

/* The executable's path and the start of its lowest mapping. */
static void exe_base(pid_t pid, char *exe, size_t len, uint64_t *base) {
  char path[64], line[PATH_MAX + 128];
  snprintf(path, sizeof path, "/proc/%d/exe", (int)pid);
  ssize_t n = readlink(path, exe, len - 1);
  if (n < 0) die("readlink");
  exe[n] = '\0';
  snprintf(path, sizeof path, "/proc/%d/maps", (int)pid);
  FILE *maps = fopen(path, "r");
  if (!maps) die("maps");
  *base = 0;
  while (fgets(line, sizeof line, maps)) {
    unsigned long lo;
    char *file = strchr(line, '/');
    if (file) file[strcspn(file, "\n")] = '\0';
    if (file && strcmp(file, exe) == 0 && sscanf(line, "%lx-", &lo) == 1) {
      *base = lo;
      break;
    }
  }
  fclose(maps);
}

int main(int argc, char **argv) {
  long interval_us = 1000;
  const char *out_path = NULL;
  int opt;
  while ((opt = getopt(argc, argv, "+i:o:")) != -1) {
    if (opt == 'i') interval_us = strtol(optarg, NULL, 10);
    else if (opt == 'o') out_path = optarg;
    else {
      fprintf(stderr, "usage: %s [-i interval_us] [-o out] -- command [args]\n", argv[0]);
      return 2;
    }
  }
  if (optind >= argc || interval_us <= 0) {
    fprintf(stderr, "usage: %s [-i interval_us] [-o out] -- command [args]\n", argv[0]);
    return 2;
  }
  FILE *out = out_path ? fopen(out_path, "w") : stdout;
  if (!out) die("output");

  pid_t pid = fork();
  if (pid < 0) die("fork");
  if (pid == 0) {
    personality(ADDR_NO_RANDOMIZE);
    raise(SIGSTOP); /* wait for the parent to seize us */
    execvp(argv[optind], argv + optind);
    perror("exec");
    _exit(127);
  }

  int status;
  if (waitpid(pid, &status, WUNTRACED) < 0 || !WIFSTOPPED(status)) die("waitpid");
  if (ptrace(PTRACE_SEIZE, pid, 0, PTRACE_O_TRACEEXEC | PTRACE_O_EXITKILL) < 0)
    die("PTRACE_SEIZE");
  kill(pid, SIGCONT);

  /* Let everything up to and including the exec run unsampled. */
  for (;;) {
    if (waitpid(pid, &status, __WALL) < 0) die("waitpid");
    if (WIFEXITED(status) || WIFSIGNALED(status)) {
      fprintf(stderr, "pcsample: command ended before exec\n");
      return 2;
    }
    if (status >> 8 == (SIGTRAP | (PTRACE_EVENT_EXEC << 8))) break;
    int sig = WSTOPSIG(status);
    ptrace(PTRACE_CONT, pid, 0, (void *)(long)(sig == SIGCONT || sig == SIGSTOP ? 0 : sig));
  }
  char exe[PATH_MAX];
  uint64_t base;
  exe_base(pid, exe, sizeof exe, &base);
  fprintf(out, "# exe %s base %llx\n", exe, (unsigned long long)base);
  ptrace(PTRACE_CONT, pid, 0, 0);

  long samples = 0;
  struct timespec tick = { interval_us / 1000000, (interval_us % 1000000) * 1000 };
  for (;;) {
    nanosleep(&tick, NULL);
    if (ptrace(PTRACE_INTERRUPT, pid, 0, 0) < 0) {
      if (errno == ESRCH) {
        if (waitpid(pid, &status, __WALL) < 0) die("waitpid");
        break;
      }
      die("PTRACE_INTERRUPT");
    }
    /* Wait for the interrupt's stop, passing on any signal that arrives
       first; exits end the run. */
    int done = 0;
    for (;;) {
      if (waitpid(pid, &status, __WALL) < 0) die("waitpid");
      if (WIFEXITED(status) || WIFSIGNALED(status)) {
        done = 1;
        break;
      }
      if (status >> 16 == PTRACE_EVENT_STOP) {
        int ok;
        uint64_t pc = read_pc(pid, &ok);
        if (ok) {
          fprintf(out, "%llx\n", (unsigned long long)pc);
          samples++;
        }
        ptrace(PTRACE_CONT, pid, 0, 0);
        break;
      }
      ptrace(PTRACE_CONT, pid, 0, (void *)(long)WSTOPSIG(status));
    }
    if (done) break;
  }
  if (out != stdout) fclose(out);
  fprintf(stderr, "pcsample: %ld samples every %ld us\n", samples, interval_us);
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + WTERMSIG(status);
}
