"""OpenLDAP-mini: miniature slapd.

Mirrors the real OpenLDAP traits the paper reports:

* **hybrid** mapping convention (Table 1): a handler table in the
  bconfig.c style (``ConfigArgs *c``) plus a strcasecmp dispatch chain;
* Figure 2: ``listener-threads`` > 16 segfaults after startup with
  nothing but "Segmentation fault" on the console - the hard-coded
  maximum is neither checked nor documented;
* Figure 3(d): ``index_intlen`` silently clamped into [4, 255];
* Figure 7(c): tiny ``sockbuf_max_incoming`` makes every request fail
  with "Can't contact LDAP server (-1)" and only generic connection
  logs;
* pointer-heavy limit enforcement that mis-attributes constraints
  without alias analysis (Table 12's lowest accuracy row);
* no control dependencies at all (Table 11 reports 0 for OpenLDAP).
"""

from __future__ import annotations

from repro.core.accuracy import (
    truth_basic,
    truth_range,
    truth_semantic,
    truth_value_rel,
)
from repro.inject.ar import DirectiveDialect
from repro.systems.base import FunctionalTest, OsDir, ParamSpec, SubjectSystem
from repro.systems.registry import register

SLAPD_MAIN = r"""
// slapd-mini: main.c
int listener_threads = 1;
int worker_threads = 4;
int index_intlen = 4;
int sockbuf_max_incoming = 262144;
int entry_cache_bytes = 1048576;
int cachesize = 1000;
int cachefree = 100;
int sizelimit = 500;
int admin_sizelimit = 0;
int idletimeout = 0;
int writetimeout = 0;
int checkpoint_interval = 60;
int readonly_mode = 0;
int require_tls = 0;
char *pidfile_path = "/var/run/slapd.pid";
char *argsfile_path = "/var/run/slapd.args";
char *db_directory = "/data/ldap";
char *sockbuf;

int listener_slots[16];

struct config_args { int value_int; char *value_str; };
struct config_entry { char *name; void *handler; int takes_int; };

int cfg_index_intlen(struct config_args *c) {
    if (c->value_int < 4) {
        c->value_int = 4;
    } else if (c->value_int > 255) {
        c->value_int = 255;
    }
    index_intlen = c->value_int;
    return 0;
}

int cfg_sockbuf_max(struct config_args *c) {
    if (c->value_int > 1048576) {
        c->value_int = 1048576;
    }
    sockbuf_max_incoming = c->value_int;
    return 0;
}

int cfg_cache(struct config_args *c) {
    entry_cache_bytes = c->value_int;
    return 0;
}

int cfg_worker_threads(struct config_args *c) {
    if (c->value_int < 2) {
        fprintf(stderr, "slapd: invalid value for threads: %d (minimum 2)\n",
                c->value_int);
        exit(1);
    }
    if (c->value_int > 64) {
        fprintf(stderr, "slapd: invalid value for threads: %d (maximum 64)\n",
                c->value_int);
        exit(1);
    }
    worker_threads = c->value_int;
    return 0;
}

struct config_entry config_table[] = {
    { "index_intlen", cfg_index_intlen, 1 },
    { "sockbuf_max_incoming", cfg_sockbuf_max, 1 },
    { "entry_cache_bytes", cfg_cache, 1 },
    { "threads", cfg_worker_threads, 1 },
};

int parse_bool_value(char *key, char *value) {
    if (strcasecmp(value, "on") == 0) {
        return 1;
    }
    if (strcasecmp(value, "off") == 0) {
        return 0;
    }
    fprintf(stderr, "slapd: %s expects on|off, got \"%s\"\n", key, value);
    exit(1);
    return 0;
}

int handle_directive(char *key, char *value) {
    int i;
    struct config_args args;
    for (i = 0; i < 4; i++) {
        if (strcasecmp(key, config_table[i].name) == 0) {
            args.value_int = (int)strtol(value, NULL, 10);
            args.value_str = value;
            config_table[i].handler(&args);
            return 0;
        }
    }
    // Comparison-based half of the hybrid convention.
    if (strcasecmp(key, "listener-threads") == 0) {
        listener_threads = (int)strtol(value, NULL, 10);
        return 0;
    }
    if (strcasecmp(key, "cachesize") == 0) {
        cachesize = (int)strtol(value, NULL, 10);
        return 0;
    }
    if (strcasecmp(key, "cachefree") == 0) {
        cachefree = (int)strtol(value, NULL, 10);
        return 0;
    }
    if (strcasecmp(key, "sizelimit") == 0) {
        sizelimit = (int)strtol(value, NULL, 10);
        return 0;
    }
    if (strcasecmp(key, "idletimeout") == 0) {
        idletimeout = (int)strtol(value, NULL, 10);
        return 0;
    }
    if (strcasecmp(key, "writetimeout") == 0) {
        writetimeout = (int)strtol(value, NULL, 10);
        return 0;
    }
    if (strcasecmp(key, "checkpoint") == 0) {
        checkpoint_interval = (int)strtol(value, NULL, 10);
        return 0;
    }
    if (strcasecmp(key, "readonly") == 0) {
        readonly_mode = parse_bool_value(key, value);
        return 0;
    }
    if (strcasecmp(key, "require_tls") == 0) {
        require_tls = parse_bool_value(key, value);
        return 0;
    }
    if (strcasecmp(key, "pidfile") == 0) {
        pidfile_path = value;
        return 0;
    }
    if (strcasecmp(key, "argsfile") == 0) {
        argsfile_path = value;
        return 0;
    }
    if (strcasecmp(key, "directory") == 0) {
        db_directory = value;
        return 0;
    }
    // Unknown directives are ignored, as slapd does for modules.
    return 0;
}

int read_config(char *path) {
    void *fp = fopen(path, "r");
    if (fp == NULL) {
        fprintf(stderr, "slapd: could not open config file %s\n", path);
        return 1;
    }
    char *line = fgets(fp);
    while (line != NULL) {
        char *trimmed = str_trim(line);
        if (strlen(trimmed) > 0 && trimmed[0] != '#') {
            char *key = str_token(trimmed, 0);
            char *value = str_token(trimmed, 1);
            if (key != NULL && value != NULL) {
                handle_directive(key, value);
            }
        }
        line = fgets(fp);
    }
    fclose(fp);
    return 0;
}

int init_listeners() {
    // Hard-coded maximum of 16 listener slots: values beyond that
    // corrupt memory (the Figure 2 vulnerability, kept unfixed as the
    // real developers refused to change it).
    int i;
    for (i = 0; i < listener_threads; i++) {
        listener_slots[i] = i;
    }
    return 0;
}

int check_environment() {
    // Independent checks combined into one flag: no check guards
    // another (OpenLDAP infers zero control dependencies, Table 11).
    int ok = 1;
    if (!is_directory(db_directory)) {
        ok = 0;  // fails without any message: early termination
    }
    void *pid = fopen(pidfile_path, "w");
    if (pid == NULL) {
        ok = 0;  // also silent
    } else {
        fwrite_str(pid, "4242\n");
        fclose(pid);
    }
    void *args = fopen(argsfile_path, "w");
    if (args == NULL) {
        ok = 0;  // also silent
    } else {
        fclose(args);
    }
    if (ok == 0) {
        return 1;
    }
    return 0;
}

int init_caches() {
    sockbuf = malloc(sockbuf_max_incoming);
    char *entry_cache = malloc(entry_cache_bytes);
    // Pointer-mediated limit enforcement (bconfig.c style).  Without
    // alias analysis the limits get attributed to both candidates.
    int admin = 0;
    int *lim = &sizelimit;
    if (admin != 0) {
        lim = &admin_sizelimit;
    }
    if (*lim > 100000) {
        *lim = 100000;
    }
    int *lo = &cachefree;
    int *hi = &cachesize;
    if (admin != 0) {
        hi = &sizelimit;
    }
    if (*lo >= *hi) {
        *hi = *lo + 1;
    }
    return 0;
}

int idle_tick(long started) {
    // Capped naps keep an absurd timeout from hanging the server.
    if (idletimeout > 0) {
        int nap = idletimeout;
        if (nap > 2) {
            nap = 2;
        }
        sleep(nap);
    }
    if (writetimeout > 0) {
        int wnap = writetimeout;
        if (wnap > 2) {
            wnap = 2;
        }
        sleep(wnap);
    }
    if (checkpoint_interval > 0) {
        int cnap = checkpoint_interval;
        if (cnap > 2) {
            cnap = 2;
        }
        sleep(cnap);
    }
    return 0;
}

int serve() {
    char *req = recv_request();
    while (req != NULL) {
        if (strlen(req) > sockbuf_max_incoming) {
            syslog(6, "conn=11 fd=12 ACCEPT from IP=127.0.0.1");
            syslog(6, "conn=11 fd=12 closed (connection lost)");
            send_response("Can't contact LDAP server (-1)");
        } else if (strncmp(req, "BIND ", 5) == 0) {
            if (readonly_mode == 1 && require_tls == 1) {
                send_response("BIND refused: TLS required");
            } else {
                send_response("BIND ok");
            }
        } else if (strncmp(req, "SEARCH ", 7) == 0) {
            char *term = str_token(req, 1);
            int limit = sizelimit;
            send_response(sprintf("RESULT success=1 term=%s limit=%d",
                                  term, limit));
        } else if (strcmp(req, "PING") == 0) {
            send_response("PONG");
        } else {
            send_response("ERR unknown operation");
        }
        req = recv_request();
    }
    return 0;
}

int main(int argc, char **argv) {
    if (argc < 2) {
        fprintf(stderr, "usage: slapd <config>\n");
        return 2;
    }
    if (read_config(argv[1]) != 0) {
        return 1;
    }
    init_listeners();
    if (check_environment() != 0) {
        return 1;
    }
    init_caches();
    idle_tick(time(NULL));
    serve();
    return 0;
}
"""

ANNOTATIONS = """
{ @STRUCT = config_table
  @PAR = [config_entry, 1]
  @VAR = ([config_entry, 2], $c) }
{ @PARSER = handle_directive
  @PAR = $key
  @VAR = $value }
"""

DEFAULT_CONFIG = """\
# slapd-mini configuration
listener-threads 1
threads 4
index_intlen 4
sockbuf_max_incoming 262144
entry_cache_bytes 1048576
cachesize 1000
cachefree 100
sizelimit 500
idletimeout 0
writetimeout 0
checkpoint 60
readonly off
require_tls off
pidfile /var/run/slapd.pid
argsfile /var/run/slapd.args
directory /data/ldap
"""

MANUAL = {
    "listener-threads": "listener-threads <integer>: number of listener threads.",
    "threads": "threads <integer>: worker threads, between 2 and 64.",
    "index_intlen": "index_intlen <integer>: key length for integer indices.",
    "sockbuf_max_incoming": (
        "sockbuf_max_incoming <bytes>: maximum incoming LDAP PDU size."
    ),
    "entry_cache_bytes": "entry_cache_bytes <bytes>: entry cache memory.",
    "cachesize": "cachesize <integer>: entries cached.",
    "cachefree": (
        "cachefree <integer>: entries to free when full; "
        "must be smaller than cachesize."
    ),
    "sizelimit": "sizelimit <integer>: maximum entries returned per search.",
    "idletimeout": "idletimeout <seconds>: drop idle connections.",
    "writetimeout": "writetimeout <seconds>: drop blocked writers.",
    "checkpoint": "checkpoint <seconds>: database checkpoint interval.",
    "readonly": "readonly on|off.",
    "require_tls": "require_tls on|off.",
    "pidfile": "pidfile <path>: file holding the server PID.",
    "argsfile": "argsfile <path>: file holding the command line.",
    "directory": "directory <path>: database directory.",
}


def _tests() -> list[FunctionalTest]:
    return [
        FunctionalTest(
            name="ping",
            requests=["PING"],
            oracle=lambda responses: responses == ["PONG"],
            duration=0.5,
        ),
        FunctionalTest(
            name="bind",
            requests=["BIND cn=admin secret"],
            oracle=lambda responses: responses == ["BIND ok"],
            duration=1.0,
        ),
        FunctionalTest(
            name="search",
            requests=["SEARCH alpha"],
            oracle=lambda responses: len(responses) == 1
            and responses[0].startswith("RESULT success=1 term=alpha"),
            duration=2.0,
        ),
    ]


@register("openldap")
def build() -> SubjectSystem:
    return SubjectSystem(
        name="openldap",
        display_name="OpenLDAP",
        description="Miniature slapd with the paper's OpenLDAP traits",
        sources={"slapd.c": SLAPD_MAIN},
        annotations=ANNOTATIONS,
        dialect=DirectiveDialect(),
        config_path="/etc/openldap/slapd.conf",
        default_config=DEFAULT_CONFIG,
        params=[
            ParamSpec(
                "listener-threads",
                decode="int",
                var="listener_threads",
                manual=MANUAL["listener-threads"],
                truth=(truth_basic("listener-threads", "int"),),
            ),
            ParamSpec(
                "threads",
                decode="int",
                var="worker_threads",
                manual=MANUAL["threads"],
                truth=(
                    truth_basic("threads", "int"),
                    truth_range("threads"),
                ),
            ),
            ParamSpec(
                "index_intlen",
                decode="int",
                manual=MANUAL["index_intlen"],
                truth=(
                    truth_basic("index_intlen", "int"),
                    truth_range("index_intlen"),
                ),
            ),
            ParamSpec(
                "sockbuf_max_incoming",
                decode="size",
                manual=MANUAL["sockbuf_max_incoming"],
                truth=(
                    truth_basic("sockbuf_max_incoming", "int"),
                    truth_semantic("sockbuf_max_incoming", "SIZE"),
                    truth_range("sockbuf_max_incoming"),
                ),
            ),
            ParamSpec(
                "entry_cache_bytes",
                decode="size",
                manual=MANUAL["entry_cache_bytes"],
                truth=(
                    truth_basic("entry_cache_bytes", "int"),
                    truth_semantic("entry_cache_bytes", "SIZE"),
                ),
            ),
            ParamSpec(
                "cachesize",
                decode="int",
                manual=MANUAL["cachesize"],
                truth=(truth_basic("cachesize", "int"),),
            ),
            ParamSpec(
                "cachefree",
                decode="int",
                manual=MANUAL["cachefree"],
                truth=(truth_basic("cachefree", "int"),),
            ),
            ParamSpec(
                "sizelimit",
                decode="int",
                manual=MANUAL["sizelimit"],
                truth=(
                    truth_basic("sizelimit", "int"),
                    truth_range("sizelimit"),
                ),
            ),
            ParamSpec(
                "idletimeout",
                decode="int",
                manual=MANUAL["idletimeout"],
                truth=(
                    truth_basic("idletimeout", "int"),
                    truth_semantic("idletimeout", "TIME"),
                ),
            ),
            ParamSpec(
                "writetimeout",
                decode="int",
                manual=MANUAL["writetimeout"],
                truth=(
                    truth_basic("writetimeout", "int"),
                    truth_semantic("writetimeout", "TIME"),
                ),
            ),
            ParamSpec(
                "checkpoint",
                decode="int",
                var="checkpoint_interval",
                manual=MANUAL["checkpoint"],
                truth=(
                    truth_basic("checkpoint", "int"),
                    truth_semantic("checkpoint", "TIME"),
                ),
            ),
            # readonly / require_tls are deliberately untracked: their
            # stores flip int flags the harness observes behaviourally.
            ParamSpec(
                "readonly",
                decode="string",
                var=None,
                manual=MANUAL["readonly"],
                truth=(
                    truth_basic("readonly", "string"),
                    truth_range("readonly"),
                ),
            ),
            ParamSpec(
                "require_tls",
                decode="string",
                var=None,
                manual=MANUAL["require_tls"],
                truth=(
                    truth_basic("require_tls", "string"),
                    truth_range("require_tls"),
                ),
            ),
            ParamSpec(
                "pidfile",
                decode="string",
                var="pidfile_path",
                manual=MANUAL["pidfile"],
                truth=(
                    truth_basic("pidfile", "string"),
                    truth_semantic("pidfile", "FILE"),
                ),
            ),
            ParamSpec(
                "argsfile",
                decode="string",
                var="argsfile_path",
                manual=MANUAL["argsfile"],
                truth=(
                    truth_basic("argsfile", "string"),
                    truth_semantic("argsfile", "FILE"),
                ),
            ),
            ParamSpec(
                "directory",
                decode="string",
                var="db_directory",
                manual=MANUAL["directory"],
                truth=(
                    truth_basic("directory", "string"),
                    truth_semantic("directory", "DIRECTORY"),
                ),
            ),
        ],
        tests=_tests(),
        extra_truth=[
            # True relation: cachefree < cachesize.  The aliased pointer
            # also yields cachefree < sizelimit, which is NOT ground truth
            # (mis-attribution), reproducing the paper's 50% value-rel
            # accuracy for OpenLDAP.
            truth_value_rel("cachefree", "cachesize"),
        ],
        os_dirs=[OsDir("/data/ldap")],
    )
